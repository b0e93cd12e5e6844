import math
import sys

import numpy as np
import pytest

from lsv_shortmat import smile
from lsv_shortmat.model import (
    ConstantLocalVol,
    LognormalVolOfVol,
    LsvModel,
    SquareRootVolOfVol,
    TanhLocalVol,
    TaylorLocalVol,
    eta_log_coeffs,
    vix_spot,
)
from lsv_shortmat.rate_solver import european_rate, rate_to_impvol, vix_log_variance, vix_rate
from lsv_shortmat.smile import (
    atm_price_limit_european,
    atm_price_limit_vix,
    constant_drift_factor,
    european_expansion_heston_type,
    european_expansion_sabr_type,
    heston_vix_smile,
    meanrev_lognormal_vix_smile,
    vix_atm_bounds,
    vix_convexity_numerator_coeffs,
    vix_expansion_heston_type,
    vix_expansion_sabr_type,
    vix_mapping,
)
from oracles import EPS, corner_models, vix_convexity_numerator_terms

TANH = TanhLocalVol(1.0, -0.5, 0.0)


def table_model(rho, **kw):
    base = dict(s0=1.0, v0=0.1, rho=rho, local_vol=TANH, vol_of_vol=LognormalVolOfVol(2.0))
    base.update(kw)
    return LsvModel(**base)


# benchmark-model smile parameters; all nine match the 3-decimal reference
# table of the acceptance suite.  The VIX convexities are the true quadratic
# coefficients: that table once pinned them at sqrt(V0) times these, and
# TestVixConvexityOracles below holds them to 1e-5 against the rate solver
# and the exact local-vol limit
EXPECTED = {
    -0.7: dict(e=(0.316, -0.429, 0.133), v=(1.116, 0.054, 0.012621)),
    0.0: dict(e=(0.316, -0.079, 0.520), v=(1.012, 0.012, 0.007483)),
    0.7: dict(e=(0.316, 0.271, 0.133), v=(0.896, -0.053, -0.017184)),
}


class TestEuropeanSabrType:
    @pytest.mark.parametrize("rho", [-0.7, 0.0, 0.7])
    def test_benchmark_rows(self, rho):
        exp = european_expansion_sabr_type(table_model(rho))
        atm, skew, conv = EXPECTED[rho]["e"]
        assert round(exp.atm, 3) == atm
        assert round(exp.skew, 3) == skew
        assert round(exp.convexity, 3) == conv

    def test_atm_independent_of_rho_and_sigma(self):
        atms = {
            european_expansion_sabr_type(table_model(rho, vol_of_vol=LognormalVolOfVol(s))).atm
            for rho in (-0.5, 0.0, 0.9)
            for s in (0.5, 2.0)
        }
        assert len({round(a, 14) for a in atms}) == 1

    def test_pure_stochastic_vol_skew(self):
        model = table_model(-0.4, local_vol=ConstantLocalVol())
        exp = european_expansion_sabr_type(model)
        assert exp.skew == pytest.approx(-0.4 * 2.0 / 4.0, rel=1e-14)

    def test_wrong_family_rejected(self):
        with pytest.raises(ValueError):
            european_expansion_sabr_type(table_model(0.0, vol_of_vol=SquareRootVolOfVol(1.0)))


class TestVixSabrType:
    @pytest.mark.parametrize("rho", [-0.7, 0.0, 0.7])
    def test_benchmark_rows(self, rho):
        exp = vix_expansion_sabr_type(table_model(rho))
        atm, skew, conv = EXPECTED[rho]["v"]
        assert round(exp.atm, 3) == atm
        assert round(exp.skew, 3) == skew
        assert exp.convexity == pytest.approx(conv, abs=5e-6)

    def test_pure_stochastic_vol_flat(self):
        exp = vix_expansion_sabr_type(table_model(0.3, local_vol=ConstantLocalVol()))
        assert exp.atm == pytest.approx(1.0, rel=1e-14)  # sigma / 2
        assert exp.skew == pytest.approx(0.0, abs=1e-14)
        assert exp.convexity == pytest.approx(0.0, abs=1e-14)

    def test_atm_even_under_joint_flip(self):
        # (rho, eta1) -> (-rho, -eta1) leaves the ATM level unchanged
        up = table_model(0.6, local_vol=TaylorLocalVol(1.0, 0.4, 0.1, 0.0))
        down = table_model(-0.6, local_vol=TaylorLocalVol(1.0, -0.4, 0.1, 0.0))
        a = vix_expansion_sabr_type(up).atm
        b = vix_expansion_sabr_type(down).atm
        assert a == pytest.approx(b, rel=1e-14)

    def test_double_entry_transcription(self):
        # independently re-typed copy of the convexity numerator coefficients
        def retyped(e0, e1, e2, e3, r, v):
            r2 = r * r
            sv = math.sqrt(v)
            out = [
                256 * e0 * e1**4 * v**3 * sv * (e1**2 * e2 - 3 * e0 * e2**2 + 3 * e0 * e1 * e3),
                128 * e0 * e1**3 * r * v**3 * (15 * e0 * e1 * e3 - 12 * e0 * e2**2 + 5 * e1**2 * e2),
                16 * e1**2 * v**2 * sv * (
                    12 * e0**2 * e1 * e3 * (9 * r2 + 1) + 24 * e0**2 * e2**2 * (1 - 4 * r2)
                    + 4 * e0 * e1**2 * e2 * (15 * r2 - 2) + e1**4 * (2 - 3 * r2)),
                16 * e1 * r * v**2 * (
                    6 * e0**2 * e1 * e3 * (7 * r2 + 3) + 6 * e0**2 * e2**2 * (4 - 8 * r2)
                    + 4 * e0 * e1**2 * e2 * (8 * r2 + 3) - e1**4 * r2),
                4 * v * sv * (
                    12 * e0**2 * e1 * e3 * r2 * (2 * r2 + 3) + 12 * e0**2 * e2**2 * r2 * (2 - 3 * r2)
                    + 4 * e0 * e1**2 * e2 * (5 * r2**2 + 12 * r2 + 6) - e1**4 * (r2**2 - 6 * r2 + 3)),
                4 * r * v * (6 * e0**2 * e3 * r2 + 2 * e0 * e1 * e2 * (4 * r2 + 9) + e1**3 * (r2 + 3)),
                sv * (12 * e0 * e2 * r2 + e1**2 * (3 * r2 + 4)),
                e1 * r,
            ]
            return out

        rng = np.random.default_rng(23)
        for _ in range(25):
            e0 = rng.uniform(0.5, 1.5)
            e1, e2, e3 = rng.uniform(-0.8, 0.8, size=3)
            r = rng.uniform(-1, 1)
            v = rng.uniform(0.01, 0.5)
            a = vix_convexity_numerator_coeffs(e0, e1, e2, e3, r, v)
            b = retyped(e0, e1, e2, e3, r, v)
            assert a == pytest.approx(b, rel=1e-12)


class TestVixAtmBounds:
    def test_arithmetic_example(self):
        model = table_model(0.0)
        lo, hi = vix_atm_bounds(model)
        assert lo == pytest.approx(abs(1.0 + (-0.5) * math.sqrt(0.1)), abs=1e-12)
        assert hi == pytest.approx(abs(1.0 - (-0.5) * math.sqrt(0.1)), abs=1e-12)
        assert (lo, hi) == pytest.approx((0.841886, 1.158114), abs=1e-6)

    def test_table_levels_inside(self):
        lo, hi = vix_atm_bounds(table_model(0.0))
        for rho in (-0.7, 0.0, 0.7):
            atm = vix_expansion_sabr_type(table_model(rho)).atm
            assert lo <= atm <= hi

    def test_collapse_without_local_vol(self):
        lo, hi = vix_atm_bounds(table_model(0.0, local_vol=ConstantLocalVol()))
        assert lo == hi == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("sigma, v0, f1", [(0.6, 0.1, -0.5), (1.2, 0.04, 0.3), (0.3, 0.4, -0.2)])
    def test_square_root_family(self, sigma, v0, f1):
        # the ends are the ATM levels at rho = -+1, and every level lies between
        base = dict(v0=v0, local_vol=TanhLocalVol(1.0, f1, 0.0), vol_of_vol=SquareRootVolOfVol(sigma))
        lo, hi = vix_atm_bounds(table_model(0.0, **base))
        ends = sorted(vix_expansion_heston_type(table_model(rho, **base)).atm for rho in (-1.0, 1.0))
        assert abs(lo - ends[0]) <= 1e-15 * ends[0]
        assert abs(hi - ends[1]) <= 1e-15 * ends[1]
        for rho in (-0.7, 0.0, 0.7):
            assert lo <= vix_expansion_heston_type(table_model(rho, **base)).atm <= hi


class TestVixLevelVanishes:
    """The squared ATM VIX level d = sigma^2 + 4 eta1 rho sigma sqrt(V0) +
    4 eta1^2 V0 is 0 at |rho| = 1 with sigma(V0) = 2 |eta1| sqrt(V0); the
    expansion reports a zero level and no skew there instead of raising."""

    @pytest.mark.parametrize("rho, f1", [(1.0, -0.5), (-1.0, 0.5)])
    def test_exact_zero(self, rho, f1):
        base = dict(v0=1.0, local_vol=TanhLocalVol(1.0, f1, 0.0))
        lognormal = vix_expansion_sabr_type(table_model(rho, vol_of_vol=LognormalVolOfVol(1.0), **base))
        assert lognormal.atm == 0.0
        assert math.isnan(lognormal.skew) and math.isnan(lognormal.convexity)
        # sigma(V0) = sigma / sqrt(V0) = 1 for the square-root family
        square_root = vix_expansion_heston_type(table_model(rho, vol_of_vol=SquareRootVolOfVol(1.0), **base))
        assert square_root.atm == 0.0
        assert math.isnan(square_root.skew) and square_root.convexity is None
        assert vix_atm_bounds(table_model(rho, vol_of_vol=LognormalVolOfVol(1.0), **base))[0] == 0.0

    def test_rounds_below_zero(self):
        # the difference form of the squared level d evaluated to -2.8e-17 here,
        # where the square root used to raise; the sum of squares gives 0.0
        sigma = 2 * 0.7 * math.sqrt(0.1)
        exp = vix_expansion_sabr_type(table_model(1.0, local_vol=TanhLocalVol(1.0, -0.7, 0.0),
                                                  vol_of_vol=LognormalVolOfVol(sigma)))
        assert exp.atm == 0.0
        assert math.isnan(exp.skew) and math.isnan(exp.convexity)


EUROPEAN_EXPANSIONS = {LognormalVolOfVol: european_expansion_sabr_type,
                       SquareRootVolOfVol: european_expansion_heston_type}
VIX_EXPANSIONS = {LognormalVolOfVol: vix_expansion_sabr_type, SquareRootVolOfVol: vix_expansion_heston_type}
# the elasticity of sigma(V) that smile._require checks for each family
ELASTICITY = {LognormalVolOfVol: 0.0, SquareRootVolOfVol: -0.5}


def _random_models(family, seed, n):
    """Seeded random models of the family on a tanh local vol, as a uniform
    correlation and the other fields."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        f1, x0 = rng.uniform(-0.9, 0.9), rng.uniform(-1.0, 1.0)
        yield rng.uniform(-1.0, 1.0), dict(s0=rng.uniform(0.5, 2.0), v0=rng.uniform(0.01, 1.0),
                                           local_vol=TanhLocalVol(1.0, f1, x0),
                                           vol_of_vol=family(rng.uniform(0.1, 3.0)))


class TestVixAtmLevelAccuracy:
    """The ATM VIX level (1/2) sqrt(sigma^2 + 4 eta1 rho sigma sqrt(V0) +
    4 eta1^2 V0) against mpmath where the sum under that root cancels:
    sigma(V0) = 2 |eta1| sqrt(V0) (1 + delta) and |rho| at or near 1.  The
    error is measured on the scale sigma(V0)/2 + |eta1| sqrt(V0) of the two
    terms whose difference the level can be (corners from
    :func:`oracles.corner_models`)."""

    @pytest.mark.parametrize("family", [LognormalVolOfVol, SquareRootVolOfVol])
    def test_against_mpmath(self, family):
        mp = pytest.importorskip("mpmath")
        # the worst level error in units of eps * scale, and the worst price
        # limit error over its bound: the VIX spot times the level's error
        # plus two roundings, over sqrt(2 pi)
        worst_level = worst_limit = 0.0
        with mp.workdps(50):
            for model in corner_models(family, 2025, 3000):
                sigma, eta1 = model.vol_of_vol.sigma_at(model.v0), eta_log_coeffs(model.local_vol)[1]
                s, e, r, sv0 = mp.mpf(sigma), mp.mpf(eta1), mp.mpf(model.rho), mp.sqrt(model.v0)
                exact = mp.sqrt(s * s + 4 * e * r * s * sv0 + 4 * e * e * sv0 * sv0) / 2
                scale = 0.5 * sigma + abs(eta1) * math.sqrt(model.v0)
                error = abs(VIX_EXPANSIONS[family](model).atm - exact) / (EPS * scale)
                worst_level = max(worst_level, float(error))
                spot = vix_spot(model)
                limit = spot * exact / mp.sqrt(2 * mp.pi)
                bound = EPS * spot * (4.0 * scale + 2.0 * float(exact)) / math.sqrt(2.0 * math.pi)
                worst_limit = max(worst_limit, float(abs(atm_price_limit_vix(model) - limit) / bound))
        assert worst_level <= 4.0
        assert worst_limit <= 1.0

    @pytest.mark.parametrize("family", [LognormalVolOfVol, SquareRootVolOfVol])
    def test_skew_against_mpmath(self, family):
        # the skew sqrt(V0) (rho A + sqrt(1 - rho^2) B) w / d^1.5 + e b^2 / (2 d^1.5)
        # in the level's legs A and B, with b = 2 sigma A and d = 4 (A^2 + B^2),
        # against the same formula at 60 digits.  Its scale is that formula
        # with every term in absolute value: the legs cancel in this corner,
        # and so does w, so the skew is known to no better than eps times its
        # scale.  The worst error measured was 4.3 (lognormal) and 4.4
        # (square-root) units of it.
        mp = pytest.importorskip("mpmath")
        worst = 0.0
        with mp.workdps(60):
            for model in corner_models(family, 2025, 3000):
                expansion = VIX_EXPANSIONS[family](model)
                skew = expansion.skew
                if math.isnan(skew):
                    # no level, so no skew: A = B = 0 in floating point
                    assert expansion.atm == 0.0
                    continue
                sigma, e = smile._require(model, ELASTICITY[family])
                eta0, eta1, eta2, _ = (mp.mpf(c) for c in eta_log_coeffs(model.local_vol))
                s, rho, v0 = mp.mpf(sigma), mp.mpf(model.rho), mp.mpf(model.v0)
                sv0, rho_perp = mp.sqrt(v0), mp.sqrt((1 - rho) * (1 + rho))
                leg_a, leg_b = s / 2 + eta1 * rho * sv0, eta1 * sv0 * rho_perp
                d = 4 * (leg_a**2 + leg_b**2)
                w_terms = (s * s * eta1, 2 * rho * s * sv0 * eta1 * eta1, 4 * rho * s * sv0 * eta0 * eta2,
                           8 * eta0 * eta1 * eta2 * v0)
                exact = (sv0 * (rho * leg_a + rho_perp * leg_b) * sum(w_terms) + 2 * e * (s * leg_a) ** 2) / d**1.5
                scale = (sv0 * (abs(rho * leg_a) + abs(rho_perp * leg_b)) * sum(abs(t) for t in w_terms)
                         + 2 * abs(e) * (s * leg_a) ** 2) / d**1.5
                worst = max(worst, float(abs(skew - exact) / (EPS * scale)))
        assert worst <= 8.0


class TestCoefficientAccuracy:
    """The European skew and convexity of both families and the lognormal VIX
    convexity against mpmath (60 digits) on the same float inputs, over the
    corners of :func:`oracles.corner_models`, half of them with eta2 set to
    cancel the European convexity numerator.  Each error is measured in units
    of eps times the coefficient's scale: the formula with every term in
    absolute value.  Where a numerator cancels, the relative error is bounded
    by nothing but that scale: it is the conditioning of the inputs."""

    @pytest.mark.parametrize("family", [LognormalVolOfVol, SquareRootVolOfVol])
    def test_european_against_mpmath(self, family):
        # worst measured: 1.10 / 1.10 units (skew) and 2.08 / 2.05 units
        # (convexity), lognormal / square-root
        mp = pytest.importorskip("mpmath")
        worst_skew = worst_conv = 0.0
        with mp.workdps(60):
            for model in corner_models(family, 2026, 6000, cancel_european_convexity=True):
                expansion = EUROPEAN_EXPANSIONS[family](model)
                sigma, e = smile._require(model, ELASTICITY[family])
                eta0, eta1, eta2, _ = (mp.mpf(c) for c in eta_log_coeffs(model.local_vol))
                s, rho, v0 = mp.mpf(sigma), mp.mpf(model.rho), mp.mpf(model.v0)
                sv0 = mp.sqrt(v0)
                skew_terms = (rho * s / 4, eta1 * sv0 / 2)
                conv_terms = (2 * s * s, -(3 - 4 * e) * rho * rho * s * s, 16 * eta0 * eta2 * v0, -4 * eta1 * eta1 * v0)
                den = 48 * eta0 * sv0
                worst_skew = max(worst_skew, float(abs(expansion.skew - sum(skew_terms))
                                                   / (EPS * sum(abs(t) for t in skew_terms))))
                worst_conv = max(worst_conv, float(abs(expansion.convexity - sum(conv_terms) / den)
                                                   / (EPS * sum(abs(t) for t in conv_terms) / den)))
        assert worst_skew <= 4.0
        assert worst_conv <= 4.0

    @pytest.mark.parametrize("family", [LognormalVolOfVol, SquareRootVolOfVol])
    def test_european_atm_price_limit_against_mpmath(self, family):
        # eta(S0) S0 sqrt(V0) / sqrt(2 pi), a product that cancels nowhere,
        # so its scale is its value; the corners draw v0 over 3.5 decades
        # and s0 is moved off 1 to bring it into the product.  Worst
        # measured: 1.83 units for either family
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(31)
        worst = 0.0
        with mp.workdps(60):
            for model in corner_models(family, 2026, 6000):
                model = LsvModel(10.0 ** rng.uniform(-2.0, 3.0), model.v0, model.rho, model.local_vol,
                                 model.vol_of_vol)
                eta0 = mp.mpf(eta_log_coeffs(model.local_vol)[0])
                exact = eta0 * mp.mpf(model.s0) * mp.sqrt(mp.mpf(model.v0)) / mp.sqrt(2 * mp.pi)
                worst = max(worst, float(abs(atm_price_limit_european(model) - exact) / (EPS * exact)))
        assert worst <= 4.0

    def test_vix_convexity_against_mpmath(self):
        # sqrt(V0)/6 K(sigma)/d^3.5 with the numerator K split into its
        # summands (oracles.vix_convexity_numerator_terms) and
        # d = sigma^2 + 4 eta1 rho sigma sqrt(V0) + 4 eta1^2 V0, the squared
        # level times 4.  The scale is K's summands in absolute value over
        # d^3.5, plus 3.5 |convexity| d_abs / d for the power of d, d_abs
        # being d's terms in absolute value.  Worst measured: 2.22 units
        # (10.0 units of the numerator's part of the scale alone, where
        # d^3.5 carries the rounding of a d that does not cancel).
        mp = pytest.importorskip("mpmath")
        worst = 0.0
        with mp.workdps(60):
            for model in corner_models(LognormalVolOfVol, 2026, 6000, cancel_european_convexity=True):
                conv = vix_expansion_sabr_type(model).convexity
                if math.isnan(conv):
                    continue  # no level: d = 0 in floating point
                eta = [mp.mpf(c) for c in eta_log_coeffs(model.local_vol)]
                s, rho, v0 = mp.mpf(model.vol_of_vol.sigma_at(model.v0)), mp.mpf(model.rho), mp.mpf(model.v0)
                sv0, eta1 = mp.sqrt(v0), eta[1]
                terms = vix_convexity_numerator_terms(*eta, rho, v0)
                numerator = sum(pre * s**i * sum(parts) for i, (pre, parts) in enumerate(terms))
                numerator_abs = sum(abs(pre) * s**i * sum(map(abs, parts)) for i, (pre, parts) in enumerate(terms))
                d = s * s + 4 * eta1 * rho * s * sv0 + 4 * eta1 * eta1 * v0
                d_abs = s * s + 4 * abs(eta1 * rho * s) * sv0 + 4 * eta1 * eta1 * v0
                exact = sv0 / 6 * numerator / d**3.5
                scale = sv0 / 6 * numerator_abs / d**3.5 + abs(exact) * mp.mpf(3.5) * d_abs / d
                worst = max(worst, float(abs(conv - exact) / (EPS * scale)))
        assert worst <= 4.0


class TestOneVixAtmLevel:
    """The VIX expansion, its range over rho and the VIX price limit read
    one ATM level."""

    @pytest.mark.parametrize("family", [LognormalVolOfVol, SquareRootVolOfVol])
    def test_bounds_are_the_levels_at_full_correlation(self, family):
        expansion = VIX_EXPANSIONS[family]
        for rho, base in _random_models(family, 31, 500):
            ends = sorted(expansion(LsvModel(rho=end, **base)).atm for end in (-1.0, 1.0))
            assert vix_atm_bounds(LsvModel(rho=rho, **base)) == tuple(ends)

    @pytest.mark.parametrize("family", [LognormalVolOfVol, SquareRootVolOfVol])
    def test_price_limit_is_the_spot_times_the_level(self, family):
        expansion = VIX_EXPANSIONS[family]
        for rho, base in _random_models(family, 37, 500):
            model = LsvModel(rho=rho, **base)
            want = vix_spot(model) * expansion(model).atm / math.sqrt(2.0 * math.pi)
            assert abs(atm_price_limit_vix(model) - want) <= 2.0 * math.ulp(want)

    def test_mapping_is_the_constant_drift_factor_at_minus_a(self):
        rng = np.random.default_rng(41)
        speeds = [0.0, 1e-15, 1e-13, 1e-12, 1e-11, *(10.0 ** rng.uniform(-10.0, 2.0, size=300))]
        for a in speeds:
            tau, b = rng.uniform(1.0 / 365.0, 1.0), rng.uniform(0.01, 0.5)
            m = vix_mapping(a, b, tau)
            assert m.alpha == constant_drift_factor(-a, tau)
            assert m.beta == b * (1.0 - m.alpha)


class TestEuropeanHestonType:
    def test_pure_heston_coefficients(self):
        # eta = 1 limit: skew rho sigma/(4 sqrt(V0)), convexity
        # (2 - 5 rho^2) sigma^2 / (48 V0^(3/2))
        rho, sigma, v0 = -0.6, 1.0, 0.04
        model = LsvModel(s0=1.0, v0=v0, rho=rho, local_vol=ConstantLocalVol(),
                         vol_of_vol=SquareRootVolOfVol(sigma))
        exp = european_expansion_heston_type(model)
        assert exp.atm == pytest.approx(math.sqrt(v0), rel=1e-14)
        assert exp.skew == pytest.approx(rho * sigma / (4 * math.sqrt(v0)), rel=1e-14)
        assert exp.convexity == pytest.approx(
            (2 - 5 * rho**2) * sigma**2 / (48 * v0**1.5), rel=1e-14)

    def test_local_vol_limit_of_convexity(self):
        # with vanishing vol-of-vol the convexity must reduce to the pure
        # local-vol smile value sqrt(V0) (eta2/3 - eta1^2/(12 eta0))
        v0 = 0.1
        model = LsvModel(s0=1.0, v0=v0, rho=0.0, local_vol=TANH,
                         vol_of_vol=SquareRootVolOfVol(1e-8))
        exp = european_expansion_heston_type(model)
        local = math.sqrt(v0) * (0.0 / 3.0 - 0.25 / 12.0)
        assert exp.convexity == pytest.approx(local, abs=1e-10)

    def test_zero_correlation_example(self):
        model = LsvModel(s0=1.0, v0=0.04, rho=0.0, local_vol=ConstantLocalVol(),
                         vol_of_vol=SquareRootVolOfVol(1.0))
        exp = european_expansion_heston_type(model)
        assert exp.skew == pytest.approx(0.0, abs=1e-15)
        assert exp.convexity == pytest.approx(5.2083333, abs=1e-6)


class TestVixHestonType:
    def test_pure_heston_limit(self):
        sigma, v0 = 1.0, 0.04
        model = LsvModel(s0=1.0, v0=v0, rho=0.0, local_vol=ConstantLocalVol(),
                         vol_of_vol=SquareRootVolOfVol(sigma))
        exp = vix_expansion_heston_type(model)
        assert exp.atm == pytest.approx(sigma / (2 * math.sqrt(v0)), rel=1e-14)
        assert exp.skew == pytest.approx(-sigma / (4 * math.sqrt(v0)), rel=1e-12)
        assert exp.convexity is None

    def test_matches_exact_smile_series(self):
        # sigma/(2 sqrt(v0)) (1 - z/2 + z^2/12) reproduces level and slope
        sigma, v0 = 0.7, 0.09
        model = LsvModel(s0=1.0, v0=v0, rho=0.0, local_vol=ConstantLocalVol(),
                         vol_of_vol=SquareRootVolOfVol(sigma))
        exp = vix_expansion_heston_type(model)
        h = 1e-5
        up = heston_vix_smile(0.0, v0, sigma, v0, 1e-9, math.sqrt(v0) * math.exp(h))
        down = heston_vix_smile(0.0, v0, sigma, v0, 1e-9, math.sqrt(v0) * math.exp(-h))
        slope = (up - down) / (2 * h)
        assert slope == pytest.approx(exp.skew, rel=1e-4)


# The per-family closed forms that one formula per product replaced, kept as
# reference copies.  They take the Taylor coefficients of eta and the spec's
# own sigma: sigma(V0) is sigma for the lognormal family and sigma / sqrt(V0)
# for the square-root family.


def reference_european_lognormal(eta, rho, v0, sigma):
    eta0, eta1, eta2, _ = eta
    sv0 = math.sqrt(v0)
    skew = 0.25 * (rho * sigma + 2 * eta1 * sv0)
    conv = ((2 - 3 * rho**2) * sigma**2 + 4 * (4 * eta0 * eta2 - eta1**2) * v0) / (48 * eta0 * sv0)
    return eta0 * sv0, skew, conv


def reference_european_square_root(eta, rho, v0, sigma):
    # the local-vol part enters with weight V0^2 over the common V0^(3/2)
    eta0, eta1, eta2, _ = eta
    sv0 = math.sqrt(v0)
    skew = (rho * sigma + 2 * eta1 * v0) / (4 * sv0)
    conv = ((2 - 5 * rho**2) * sigma**2 + 4 * (4 * eta0 * eta2 - eta1**2) * v0**2) / (48 * eta0 * v0 * sv0)
    return eta0 * sv0, skew, conv


def reference_vix_lognormal(eta, rho, v0, sigma):
    eta0, eta1, eta2, _ = eta
    sv0 = math.sqrt(v0)
    d = sigma**2 + 4 * eta1 * rho * sigma * sv0 + 4 * eta1**2 * v0
    w = (sigma**2 * eta1 + 2 * rho * sigma * sv0 * (eta1**2 + 2 * eta0 * eta2)
         + 8 * eta0 * eta1 * eta2 * v0)
    skew = 0.5 * sv0 * (rho * sigma + 2 * eta1 * sv0) / d**1.5 * w
    numerator = sum(c * sigma**i for i, c in enumerate(vix_convexity_numerator_coeffs(*eta, rho, v0)))
    return 0.5 * math.sqrt(d), skew, sv0 / 6 * numerator / d**3.5


def reference_vix_square_root(eta, rho, v0, sigma):
    # the five-term skew numerator; no convexity closed form
    eta0, eta1, eta2, _ = eta
    sv0 = math.sqrt(v0)
    d = sigma**2 + 4 * eta1 * rho * sigma * v0 + 4 * eta1**2 * v0**2
    num = (-sigma**4
           - 2 * eta1 * rho * v0 * sigma**3
           + 4 * sigma**2 * v0**2 * (eta1**2 + 2 * eta0 * eta2 * rho**2)
           + 8 * eta1 * rho * v0**3 * sigma * (4 * eta0 * eta2 + eta1**2)
           + 32 * eta0 * eta1**2 * eta2 * v0**4)
    return math.sqrt(d) / (2 * sv0), num / (4 * sv0 * d**1.5), None


class TestOneFormulaPerProduct:
    """Both families' expansions come from one formula per product in
    sigma(V0) and its elasticity e; they reproduce the per-family closed
    forms, and e comes out exact."""

    FAMILIES = {
        LognormalVolOfVol: (european_expansion_sabr_type, vix_expansion_sabr_type,
                            reference_european_lognormal, reference_vix_lognormal),
        SquareRootVolOfVol: (european_expansion_heston_type, vix_expansion_heston_type,
                             reference_european_square_root, reference_vix_square_root),
    }

    @pytest.mark.parametrize("family", [LognormalVolOfVol, SquareRootVolOfVol])
    def test_matches_the_per_family_closed_forms(self, family):
        european, vix, ref_european, ref_vix = self.FAMILIES[family]
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            local_vol = TaylorLocalVol(rng.uniform(0.5, 1.5), *rng.uniform(-1.0, 1.0, size=3))
            v0, rho, sigma = rng.uniform(0.01, 0.5), rng.uniform(-0.95, 0.95), rng.uniform(0.2, 3.0)
            model = LsvModel(s0=1.0, v0=v0, rho=rho, local_vol=local_vol, vol_of_vol=family(sigma))
            eta = eta_log_coeffs(local_vol)
            eur, vx = european(model), vix(model)
            want = ref_european(eta, rho, v0, sigma) + ref_vix(eta, rho, v0, sigma)
            got = (eur.atm, eur.skew, eur.convexity, vx.atm, vx.skew, vx.convexity)
            assert (got[-1] is None) == (want[-1] is None)
            for g, w in zip(got, want):
                if w is not None:
                    worst = max(worst, abs(g - w) / max(1.0, abs(w)))
        assert worst <= 1e-13

    @pytest.mark.parametrize("v0", [1e-4, 0.01, 0.1, 0.5, 3.0])
    @pytest.mark.parametrize("sigma", [0.2, 1.0, 2.7])
    def test_elasticity_is_exact(self, v0, sigma):
        for family, elasticity in ((LognormalVolOfVol, 0.0), (SquareRootVolOfVol, -0.5)):
            model = table_model(0.0, v0=v0, vol_of_vol=family(sigma))
            sigma_v0, e = smile._require(model, elasticity)
            assert sigma_v0 == model.vol_of_vol.sigma_at(v0)
            assert e == elasticity


class TestMeanRevLognormalSmile:
    def test_flat_without_floor(self):
        for k in (0.1, 0.3, 0.5, 1.0):
            assert meanrev_lognormal_vix_smile(1e-9, 0.04, 2.0, 0.1, 30 / 365, k) == pytest.approx(1.0, rel=1e-6)

    def test_atm_level(self):
        a, b, sigma, v0, tau = 2.0, 0.04, 1.5, 0.1, 30 / 365
        m = vix_mapping(a, b, tau)
        f = math.sqrt(m.alpha * v0 + m.beta)
        atm = meanrev_lognormal_vix_smile(a, b, sigma, v0, tau, f)
        assert atm == pytest.approx(0.5 * sigma * m.alpha * v0 / (m.alpha * v0 + m.beta), rel=1e-9)

    def test_small_z_slope(self):
        a, b, sigma, v0, tau = 2.0, 0.04, 1.5, 0.1, 30 / 365
        m = vix_mapping(a, b, tau)
        f = math.sqrt(m.alpha * v0 + m.beta)
        h = 1e-4
        up = meanrev_lognormal_vix_smile(a, b, sigma, v0, tau, f * math.exp(h))
        down = meanrev_lognormal_vix_smile(a, b, sigma, v0, tau, f * math.exp(-h))
        slope = (up - down) / (2 * h)
        assert slope == pytest.approx(0.5 * sigma * m.beta / (m.alpha * v0 + m.beta), rel=1e-3)

    def test_floor_region_is_zero_vol(self):
        a, b = 5.0, 0.09
        m = vix_mapping(a, b, 30 / 365)
        assert m.beta > 0
        assert meanrev_lognormal_vix_smile(a, b, 1.0, 0.1, 30 / 365, 0.9 * math.sqrt(m.beta)) == 0.0


class TestHestonVixSmile:
    def test_identity_mapping_closed_form(self):
        sigma, v0 = 2.0, 1.0
        for z in np.linspace(-1.0, 1.0, 41):
            if abs(z) < 1e-12:
                continue
            k = math.sqrt(v0) * math.exp(z)
            got = heston_vix_smile(0.0, v0, sigma, v0, 1e-12, k)
            expected = sigma / (2 * math.sqrt(v0)) * z / (math.exp(z) - 1.0)
            assert got == pytest.approx(expected, abs=1e-12), z

    def test_atm_limit(self):
        got = heston_vix_smile(0.0, 0.04, 1.0, 0.04, 1e-12, 0.2)
        assert got == pytest.approx(1.0 / (2 * 0.2), rel=1e-8)

    def test_example_point(self):
        # z = 0.5, sigma = 2, v0 = 1: value = 0.5 / (e^0.5 - 1)
        got = heston_vix_smile(0.0, 1.0, 2.0, 1.0, 1e-12, math.exp(0.5))
        assert got == pytest.approx(0.5 / (math.exp(0.5) - 1.0), rel=1e-9)
        assert got == pytest.approx(0.770747, abs=1e-6)

    def test_series_consistency(self):
        sigma, v0, z = 2.0, 1.0, 0.1
        got = heston_vix_smile(0.0, v0, sigma, v0, 1e-12, math.exp(z))
        series = sigma / 2 * (1 - z / 2 + z * z / 12)
        assert got == pytest.approx(series, abs=2e-4 * sigma)


class TestExplicitVixSmilesNearTheMoney:
    @pytest.mark.parametrize("smile", [meanrev_lognormal_vix_smile, heston_vix_smile])
    def test_no_cancellation(self, smile):
        # |sigma(z)/sigma(0) - 1| / |z| is the smile's relative slope, of
        # order 1; a denominator that cancels near z = 0 blows it up
        a, b, sigma, v0, tau = 2.0, 0.04, 1.5, 0.09, 30 / 365
        m = vix_mapping(a, b, tau)
        f = math.sqrt(m.alpha * v0 + m.beta)
        atm = smile(a, b, sigma, v0, tau, f)
        for z in [s * 10.0**e for e in range(-14, -5) for s in (1, -1)]:
            got = smile(a, b, sigma, v0, tau, f * math.exp(z))
            assert abs(got / atm - 1.0) / abs(z) <= 1.0, z


def _parent_meanrev_lognormal_vix_smile(a, b, sigma, v0, tau, strike):
    # the lognormal twin before both smiles read one core: 0 at the floor
    m = vix_mapping(a, b, tau)
    if strike * strike <= m.beta:
        return 0.0
    f = math.sqrt(m.alpha * v0 + m.beta)
    z = math.log(strike / f)
    if z == 0.0:
        return 0.5 * sigma * m.alpha * v0 / (m.alpha * v0 + m.beta)
    return sigma * abs(z) / abs(math.log1p(f * f * math.expm1(2.0 * z) / (m.alpha * v0)))


def _parent_heston_vix_smile(a, b, sigma, v0, tau, strike):
    # the square-root twin before both smiles read one core; it raised at the floor
    m = vix_mapping(a, b, tau)
    f = math.sqrt(m.alpha * v0 + m.beta)
    z = math.log(strike / f)
    if z == 0.0:
        return 0.5 * sigma * m.alpha * math.sqrt(v0) / (m.alpha * v0 + m.beta)
    root = math.sqrt((strike * strike - m.beta) / m.alpha)
    return 0.5 * sigma * z / (f * f * math.expm1(2.0 * z) / m.alpha / (root + math.sqrt(v0)))


def _exact_stochvol_vix_smile(mp, family, sigma, v0, mapping, strike):
    """|z| / sqrt(2 J) in mpmath on the float inputs, J the family's rate of
    reaching the variance (K^2 - beta) / alpha from v0."""
    alpha, beta, k = mp.mpf(mapping.alpha), mp.mpf(mapping.beta), mp.mpf(strike)
    z = mp.log(k / mp.sqrt(alpha * v0 + beta))
    v = (k * k - beta) / alpha
    if family is LognormalVolOfVol:
        return sigma * abs(z) / abs(mp.log(v / v0))
    return sigma * abs(z) / (2 * abs(mp.sqrt(v) - mp.sqrt(v0)))


def _smile_sweep(seed, n):
    """(a, b, sigma, v0, tau, strike) draws: strikes F e^z with |z| from
    1e-14 to 3 on either side of the forward F, and every tenth below the
    floor sqrt(beta)."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        a, b, sigma = rng.uniform(0.0, 8.0), rng.uniform(0.005, 0.5), rng.uniform(0.1, 3.0)
        v0, tau = 10.0 ** rng.uniform(-3.0, 0.0), rng.uniform(1.0 / 365.0, 0.25)
        m = vix_mapping(a, b, tau)
        if i % 10 == 0:
            strike = math.sqrt(m.beta) * rng.uniform(0.0, 1.0)
        else:
            z = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-14.0, math.log10(3.0))
            strike = math.sqrt(m.alpha * v0 + m.beta) * math.exp(z)
        yield a, b, sigma, v0, tau, strike


class TestOneStochvolVixSmile:
    """Both stochastic-vol VIX smiles are one core in the spec, the mapping
    and the VIX-to-variance map (rate_solver.vix_log_variance)."""

    SMILES = {LognormalVolOfVol: (meanrev_lognormal_vix_smile, _parent_meanrev_lognormal_vix_smile),
              SquareRootVolOfVol: (heston_vix_smile, _parent_heston_vix_smile)}

    @pytest.mark.parametrize("family", [LognormalVolOfVol, SquareRootVolOfVol])
    def test_each_smile_is_the_one_core(self, family):
        public = self.SMILES[family][0]
        for a, b, sigma, v0, tau, strike in _smile_sweep(5, 2000):
            core = smile._stochvol_vix_smile(family(sigma), v0, vix_mapping(a, b, tau), strike)
            assert public(a, b, sigma, v0, tau, strike) == core

    @pytest.mark.parametrize("family", [LognormalVolOfVol, SquareRootVolOfVol])
    def test_matches_the_twin_formulas(self, family):
        # within 1e-13 relative of the per-family formulas the core replaced
        # or, where they differ by more, within 8 eps of mpmath; the floor
        # aside, where only the lognormal twin returned 0
        mp = pytest.importorskip("mpmath")
        public, parent = self.SMILES[family]
        with mp.workdps(60):
            for a, b, sigma, v0, tau, strike in _smile_sweep(6, 5000):
                m = vix_mapping(a, b, tau)
                got = public(a, b, sigma, v0, tau, strike)
                if strike * strike <= m.beta:
                    assert got == 0.0
                    continue
                want = parent(a, b, sigma, v0, tau, strike)
                if abs(got - want) > 1e-13 * abs(want):
                    exact = _exact_stochvol_vix_smile(mp, family, sigma, v0, m, strike)
                    assert abs(got - exact) <= 8 * EPS * exact, (a, b, sigma, v0, tau, strike)

    def test_square_root_floor_is_zero_vol(self):
        # the square-root smile used to raise below the floor; both now vanish there
        a, b = 5.0, 0.09
        m = vix_mapping(a, b, 30 / 365)
        for strike in (0.9 * math.sqrt(m.beta), math.sqrt(m.beta), 1e-300):
            assert heston_vix_smile(a, b, 1.0, 0.1, 30 / 365, strike) == 0.0
            assert meanrev_lognormal_vix_smile(a, b, 1.0, 0.1, 30 / 365, strike) == 0.0


    def test_square_root_domain_edge(self):
        # J ~ v0 z^2 / sigma^2 stays a normal float down to v0 / sigma^2 = 1e-275
        # at the strikes one ulp off the forward, where the smile is its ATM level
        v0 = 1e-275
        f = math.sqrt(v0)  # the identity mapping
        atm = heston_vix_smile(0.0, v0, 1.0, v0, 1e-12, f)
        for strike in (math.nextafter(f, 0.0), math.nextafter(f, 1.0)):
            assert heston_vix_smile(0.0, v0, 1.0, v0, 1e-12, strike) == pytest.approx(atm, rel=1e-15)

    def test_square_root_below_the_domain_is_nan(self):
        # at v0 / sigma^2 = 1e-290, J one ulp off the forward is subnormal
        # (about 1e-322) and gave a vol 1.04e-3 below the ATM level; it is
        # flagged as nan, and the ATM level itself is still the expansion's
        v0 = 1e-290
        f = math.sqrt(v0)
        w = 2.0 * math.log(math.nextafter(f, 1.0) / f)
        assert SquareRootVolOfVol(1.0).variance_rate(w, v0) < sys.float_info.min
        for strike in (math.nextafter(f, 0.0), math.nextafter(f, 1.0)):
            assert math.isnan(heston_vix_smile(0.0, v0, 1.0, v0, 1e-12, strike))
        assert heston_vix_smile(0.0, v0, 1.0, v0, 1e-12, f) == pytest.approx(0.5 / math.sqrt(v0), rel=1e-15)


class TestVixLogVariance:
    """w = log((K^2 - beta) / (alpha v0)) at K = F e^z, F^2 = alpha v0 + beta."""

    def test_against_mpmath_away_from_the_floor(self):
        # alpha v0 in [1e-4, 3.2], beta 0 or in [1e-6, 1], |z| in [1e-16, 3.2],
        # K^2 - beta >= 1e-2 K^2; worst measured 2.6 eps over 3 x 30,000
        # draws.  Nearer the floor log1p's argument nears -1 and magnifies
        # its own rounding: 38 eps at K^2 - beta >= 1e-3 K^2, the
        # conditioning of w there, not of the formula.
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(29)
        worst, n = 0.0, 0
        with mp.workdps(60):
            while n < 20000:
                alpha_v0 = 10.0 ** rng.uniform(-4.0, math.log10(3.2))
                beta = 0.0 if rng.uniform() < 0.2 else 10.0 ** rng.uniform(-6.0, 0.0)
                z = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, math.log10(3.2))
                k2 = (mp.mpf(alpha_v0) + beta) * mp.exp(2 * mp.mpf(z))
                if k2 - beta < mp.mpf(1e-2) * k2:
                    continue
                exact = mp.log((k2 - beta) / alpha_v0)
                worst = max(worst, float(abs(vix_log_variance(z, alpha_v0, beta) - exact) / abs(exact)))
                n += 1
        assert worst <= 8 * EPS

    def test_exactly_twice_z_without_a_floor(self):
        for z in (-700.0, -1e-300, -0.3, 0.0, 1e-16, 2.5, 700.0):
            assert vix_log_variance(z, 0.04, 0.0) == 2.0 * z


class TestVixMapping:
    def test_zero_speed_limit(self):
        m = vix_mapping(0.0, 0.04, 30 / 365)
        assert m.alpha == 1.0 and m.beta == 0.0

    def test_arithmetic_example(self):
        m = vix_mapping(2.0, 0.04, 30 / 365)
        x = 2.0 * 30 / 365
        assert m.alpha == pytest.approx((1 - math.exp(-x)) / x, rel=1e-12)
        assert m.alpha == pytest.approx(0.92213, abs=1e-4)
        assert m.beta == pytest.approx(0.04 * (1 - m.alpha), rel=1e-12)
        assert m.beta == pytest.approx(0.0031148, abs=1e-6)

    def test_constant_drift_factor(self):
        assert constant_drift_factor(0.0, 0.5) == 1.0
        assert constant_drift_factor(0.3, 0.5) == pytest.approx(math.expm1(0.15) / 0.15, rel=1e-12)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            vix_mapping(1.0, 0.04, 0.0)


class TestAtmPriceLimits:
    def test_european_benchmark(self):
        assert atm_price_limit_european(table_model(0.0)) == pytest.approx(0.1261566, abs=1e-6)

    def test_european_unit(self):
        model = table_model(0.0, local_vol=ConstantLocalVol(), v0=1.0)
        assert atm_price_limit_european(model) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_european_scales_with_spot(self):
        assert atm_price_limit_european(table_model(0.0, s0=100.0)) == pytest.approx(12.61566, abs=1e-4)

    def test_vix_benchmark_rho0(self):
        # rho = 0: sqrt((eta0 * sigma sqrt(V0) / 2)^2 + (eta1 eta0 V0)^2) / sqrt(2 pi)
        val = atm_price_limit_vix(table_model(0.0))
        assert val == pytest.approx(math.hypot(math.sqrt(0.1), 0.05) / math.sqrt(2 * math.pi), rel=1e-12)
        assert val == pytest.approx(0.1277238, abs=1e-6)

    def test_vix_black_slope_consistency(self):
        # ATM Black slope: F * sigma_vix_atm / sqrt(2 pi) matches at rho = 0
        model = table_model(0.0)
        f0 = vix_spot(model)
        atm_vol = vix_expansion_sabr_type(model).atm
        assert atm_price_limit_vix(model) == pytest.approx(f0 * atm_vol / math.sqrt(2 * math.pi), rel=1e-12)

    def test_vix_pure_stochastic_vol(self):
        model = table_model(0.3, local_vol=ConstantLocalVol())
        expected = 0.5 * 2.0 * math.sqrt(0.1) / math.sqrt(2 * math.pi)
        assert atm_price_limit_vix(model) == pytest.approx(expected, rel=1e-12)

    def test_vix_full_correlation_collapse(self):
        model = table_model(1.0)
        expected = abs(0.5 * 2.0 * math.sqrt(0.1) * 1.0 + (-0.5) * 1.0 * 0.1) / math.sqrt(2 * math.pi)
        assert atm_price_limit_vix(model) == pytest.approx(expected, rel=1e-12)

    def test_vix_square_root_family(self):
        model = table_model(0.0, vol_of_vol=SquareRootVolOfVol(0.6))
        expected = math.hypot(0.5 * 0.6, -0.5 * 1.0 * 0.1) / math.sqrt(2 * math.pi)
        assert atm_price_limit_vix(model) == pytest.approx(expected, rel=1e-12)


def _fit_quadratic(model, product, window):
    ks = np.array([-3 * window, -2 * window, -window, window, 2 * window, 3 * window])
    vols = []
    for k in ks:
        if product == "european":
            pt = european_rate(model, model.s0 * math.exp(k))
        else:
            pt = vix_rate(model, vix_spot(model) * math.exp(k))
        vols.append(rate_to_impvol(pt.rate, k))
    c2, c1, c0 = np.polyfit(ks, vols, 2)
    return c0, c1, c2


class TestRateSolverConsistency:
    """Quadratic fits of the full rate-function smile on a narrow window
    reproduce the closed-form expansions.

    At the window used here (+-0.03) the cubic and quartic smile terms
    contaminate the fitted coefficients by well under the tolerances; on
    wider windows the contamination grows quadratically with the window, see
    the acceptance suite.
    """

    @pytest.mark.parametrize("rho", [-0.7, 0.0, 0.7])
    def test_european_sabr_type(self, rho):
        model = table_model(rho)
        exp = european_expansion_sabr_type(model)
        atm, skew, conv = _fit_quadratic(model, "european", 0.01)
        assert abs(atm - exp.atm) <= 1e-3
        assert abs(skew - exp.skew) <= 1e-3
        assert abs(conv - exp.convexity) <= 5e-3

    @pytest.mark.parametrize("rho", [-0.7, 0.0, 0.7])
    def test_vix_sabr_type(self, rho):
        model = table_model(rho)
        exp = vix_expansion_sabr_type(model)
        atm, skew, conv = _fit_quadratic(model, "vix", 0.01)
        assert abs(atm - exp.atm) <= 1e-3
        assert abs(skew - exp.skew) <= 1e-3
        assert abs(conv - exp.convexity) <= 5e-3

    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5])
    def test_european_heston_type(self, rho):
        model = table_model(rho, vol_of_vol=SquareRootVolOfVol(0.6))
        exp = european_expansion_heston_type(model)
        atm, skew, conv = _fit_quadratic(model, "european", 0.01)
        assert abs(atm - exp.atm) <= 1e-3
        assert abs(skew - exp.skew) <= 1e-3
        assert abs(conv - exp.convexity) <= 5e-3

    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5])
    def test_vix_heston_type(self, rho):
        model = table_model(rho, vol_of_vol=SquareRootVolOfVol(0.6))
        exp = vix_expansion_heston_type(model)
        atm, skew, _ = _fit_quadratic(model, "vix", 0.01)
        assert abs(atm - exp.atm) <= 1e-3
        assert abs(skew - exp.skew) <= 2e-3  # no convexity closed form to subtract


class TestVixConvexityOracles:
    """Independent oracles for the VIX convexity of the lognormal family.

    The 5e-3 tolerance of the quadratic fits above cannot tell the true
    coefficient from sqrt(V0) times it; these checks hold it to 1e-5.
    """

    @pytest.mark.parametrize("rho", [-0.7, 0.0, 0.7])
    def test_rate_function_second_difference(self, rho):
        # symmetric second differences of the rate-function smile around the
        # closed-form ATM level carry an O(h^2) quartic error, which one
        # Richardson step removes
        model = table_model(rho)
        exp = vix_expansion_sabr_type(model)
        f0 = vix_spot(model)

        def second_difference(h):
            wings = sum(rate_to_impvol(vix_rate(model, f0 * math.exp(x)).rate, x)
                        for x in (-h, h))
            return (wings - 2.0 * exp.atm) / (2.0 * h * h)

        coarse, fine = second_difference(0.02), second_difference(0.01)
        assert (4.0 * fine - coarse) / 3.0 == pytest.approx(exp.convexity, abs=1e-5)

    @pytest.mark.parametrize("v0", [0.1, 0.4])
    def test_vanishing_vol_of_vol_limit(self, v0):
        # with the variance frozen at V0 the VIX is eta(S) sqrt(V0), and its
        # smile is exactly |k| sqrt(V0) / |int_0^x dy / eta(y)| at the log-spot
        # x solving log(eta(x) / eta0) = k
        mp = pytest.importorskip("mpmath")
        model = table_model(0.0, v0=v0, vol_of_vol=LognormalVolOfVol(1e-5))
        with mp.workdps(40):
            def eta(y):
                return mp.mpf(TANH.f0) + mp.mpf(TANH.f1) * mp.tanh(y - mp.mpf(TANH.x0))

            eta0 = eta(0)

            def smile(k):
                x = mp.findroot(lambda y: mp.log(eta(y) / eta0) - k, k * eta0 / TANH.f1)
                return abs(k) * mp.sqrt(v0) / abs(mp.quad(lambda y: 1 / eta(y), [0, x]))

            # smile(h) + smile(-h) = 2 atm + 2 convexity h^2 + O(h^4)
            h = mp.mpf("1e-8")
            def pair(t):
                return smile(t) + smile(-t)

            want = float((pair(2 * h) - pair(h)) / (6 * h * h))
        assert vix_expansion_sabr_type(model).convexity == pytest.approx(want, abs=1e-5)
