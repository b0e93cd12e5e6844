import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize, minimize_scalar

from lsv_shortmat import cli, heston_rate, rate_solver
from lsv_shortmat import model as model_mod
from lsv_shortmat.hartman_watson import h_lognormal
from lsv_shortmat.heston_rate import h_heston
from lsv_shortmat.model import (
    ConstantDrift,
    ConstantLocalVol,
    LognormalVolOfVol,
    MeanRevertingDrift,
    LsvModel,
    SquareRootVolOfVol,
    TanhLocalVol,
    TaylorLocalVol,
    ZeroDrift,
    load_model,
    vix_spot,
)
from lsv_shortmat.rate_solver import (
    european_rate,
    integral_IS,
    rate_to_impvol,
    sabr_rate_closed,
    stochvol_vix_rate,
    vix_rate,
)
from lsv_shortmat.smile import (
    european_expansion_heston_type,
    european_expansion_sabr_type,
    vix_expansion_heston_type,
    vix_expansion_sabr_type,
)
from oracles import sabr_rate_mp, tanh_eta_sq_log_inverse, transform_path_iterate, transform_path_rate

TANH = TanhLocalVol(1.0, -0.5, 0.0)


def table_model(rho, **kw):
    base = dict(s0=1.0, v0=0.1, rho=rho, local_vol=TANH, vol_of_vol=LognormalVolOfVol(2.0))
    base.update(kw)
    return LsvModel(**base)


def sabr_model(rho, sigma=2.0, v0=0.1):
    return LsvModel(s0=1.0, v0=v0, rho=rho, local_vol=ConstantLocalVol(),
                    vol_of_vol=LognormalVolOfVol(sigma))


class TestIntegralIS:
    def test_zero_at_unity(self):
        assert integral_IS(TANH, 1.0, 1.0) == 0.0

    def test_constant_spec(self):
        assert integral_IS(ConstantLocalVol(), 1.0, math.e) == pytest.approx(1.0, rel=1e-12)
        assert integral_IS(ConstantLocalVol(), 1.0, math.exp(-0.4)) == pytest.approx(-0.4, rel=1e-12)

    def test_against_scipy_quad(self):
        for z in (0.2, 0.7, 1.3, math.exp(0.1), 5.0):
            oracle, _ = quad(lambda t: 1.0 / TANH.eta_derivatives(t)[0], 0.0, math.log(z),
                             epsabs=1e-13, epsrel=1e-13)
            assert integral_IS(TANH, 1.0, z) == pytest.approx(oracle, abs=1e-10)

    def test_log_coefficient_series(self):
        # (1/eta0) k - (eta1 / 2 eta0^2) k^2 + (1/3)(eta1^2/eta0^3 - eta2/eta0^2) k^3;
        # the next (quartic) coefficient for this spec is 1/96, so the
        # truncated series is good to ~1.1e-6 at k = 0.1
        k = 0.1
        series = k + 0.25 * k * k + (0.25 / 3.0) * k**3
        assert series == pytest.approx(0.10258333, abs=1e-8)
        val = integral_IS(TANH, 1.0, math.exp(k))
        assert val == pytest.approx(series, abs=2e-6)

    def test_orientation(self):
        assert integral_IS(TANH, 1.0, 0.5) < 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            integral_IS(TANH, 1.0, -1.0)

    @pytest.mark.parametrize("x0", [0.0, 0.4])
    @pytest.mark.parametrize("f1", [-0.5, 0.3])
    def test_tanh_closed_form_against_mpmath(self, x0, f1):
        mpmath = pytest.importorskip("mpmath")
        spec = TanhLocalVol(1.0, f1, x0)
        with mpmath.workdps(40):
            def oracle(length):
                f = lambda t: 1 / (1 + f1 * mpmath.tanh(t - x0))
                return mpmath.quad(f, sorted([0, x0, length]) if 0 < x0 < length else [0, length])
            for mag in (1e-8, 1e-3, 0.3, 5.0, 40.0):
                for length in (mag, -mag):
                    want = float(oracle(length))
                    assert spec.inv_eta_integral(length) == pytest.approx(want, rel=1e-13, abs=0.0), length

    @pytest.mark.parametrize("f1", [-0.5, 0.3])
    def test_tanh_closed_form_finite_far_out(self, f1):
        spec = TanhLocalVol(1.0, f1, 0.4)
        for length in (700.0, -700.0, 750.0, -750.0):
            val = spec.inv_eta_integral(length)
            assert math.isfinite(val)
            # 1/eta tends to 1/(f0 +- f1) in the wings
            slope = 1.0 / (1.0 + f1 * math.copysign(1.0, length))
            assert val / length == pytest.approx(slope, rel=1e-3)

    def test_tanh_vix_rate_skips_quadrature(self, monkeypatch):
        calls = []
        real = model_mod._gl_adaptive

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(model_mod, "_gl_adaptive", counting)
        integral_IS(TaylorLocalVol(eta0=1.0, eta1=-0.2), 1.0, 1.3)
        assert calls, "the counter must see the Taylor spec's quadrature"
        calls.clear()
        model = table_model(-0.7)
        vix_rate(model, vix_spot(model) * math.exp(0.1))
        assert not calls


class TestVolIntegralQ:
    # variance_leg takes w = y - log v0
    def test_zero_at_start(self):
        assert LognormalVolOfVol(2.0).variance_leg(0.0, 0.1)[0] == 0.0
        assert SquareRootVolOfVol(1.0).variance_leg(0.0, 0.1)[0] == 0.0

    def test_lognormal_closed_form(self):
        val = LognormalVolOfVol(2.0).variance_leg(math.log(0.4 / 0.1), 0.1)[0]
        assert val == pytest.approx(math.sqrt(0.4) - math.sqrt(0.1), rel=1e-12)
        assert val == pytest.approx(0.31622777, abs=1e-7)

    def test_square_root_closed_form(self):
        assert SquareRootVolOfVol(1.0).variance_leg(math.log(2.0), 1.0)[0] == pytest.approx(1.0, rel=1e-12)

    def test_against_quadrature(self):
        # lognormal: sigma(x) = sigma; square-root: sigma(x) = sigma/sqrt(x)
        v0, y = 0.2, math.log(0.35)
        lo, _ = quad(lambda x: 1.0 / (math.sqrt(x) * 1.7), v0, math.exp(y))
        assert LognormalVolOfVol(1.7).variance_leg(y - math.log(v0), v0)[0] == pytest.approx(lo, rel=1e-9)
        sr, _ = quad(lambda x: 1.0 / (math.sqrt(x) * (0.8 / math.sqrt(x))), v0, math.exp(y))
        assert SquareRootVolOfVol(0.8).variance_leg(y - math.log(v0), v0)[0] == pytest.approx(sr, rel=1e-9)


class TestEuropeanRate:
    def test_atm_is_zero(self):
        pt = european_rate(table_model(-0.7), 1.0 + 1e-12)
        assert pt.rate == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5])
    @pytest.mark.parametrize("k", [-0.3, -0.1, 0.1, 0.3])
    def test_sabr_closed_form_equivalence(self, rho, k):
        model = sabr_model(rho)
        strike = math.exp(k)
        pt = european_rate(model, strike)
        assert pt.converged
        assert abs(pt.rate - sabr_rate_closed(model, strike)) <= 1e-6

    def test_small_k_leading_coefficient(self):
        # J ~ k^2 / (2 eta0^2 V0) at leading order (rho = 0 kills the mixed term)
        model = table_model(0.0)
        k = 0.05
        pt = european_rate(model, math.exp(k))
        j1 = 1.0 / (2.0 * 0.1)
        assert pt.rate == pytest.approx(j1 * k * k, abs=5e-4)
        assert pt.rate == pytest.approx(0.0125, abs=5e-4)

    @pytest.mark.parametrize("k", [-0.15, 0.08, 0.2])
    def test_uncorrelated_split_equals_2d(self, k):
        # oracle: at rho = 0 the spot leg decouples, and
        # J = min_z [I_S^2 / (2 z) + min_y H(y, z)] by nested scalar searches
        strike = math.exp(k)
        for vol_of_vol, h in ((LognormalVolOfVol(2.0), h_lognormal), (SquareRootVolOfVol(1.0), h_heston)):
            model = table_model(0.0, vol_of_vol=vol_of_vol)
            i_s = integral_IS(model.local_vol, model.s0, strike)
            v0, log_v0 = model.v0, math.log(model.v0)

            def inner(log_u):
                res = minimize_scalar(lambda w: h(log_v0 + w, v0 * math.exp(log_u), v0, vol_of_vol.sigma),
                                      bounds=(-1.5, 1.5), method="bounded", options=dict(xatol=1e-10))
                assert abs(res.x) < 1.4
                return res.fun

            outer = minimize_scalar(lambda lu: i_s * i_s / (2.0 * v0 * math.exp(lu)) + inner(lu),
                                    bounds=(-1.5, 1.5), method="bounded", options=dict(xatol=1e-11))
            assert abs(outer.x) < 1.4
            full = european_rate(model, strike)
            assert full.converged
            assert abs(outer.fun - full.rate) <= 1e-8

    def test_wings_monotone(self):
        model = table_model(-0.7)
        ks = np.linspace(0.02, 0.4, 12)
        up = [european_rate(model, math.exp(k)).rate for k in ks]
        down = [european_rate(model, math.exp(-k)).rate for k in ks]
        assert np.all(np.diff(up) > 0)
        assert np.all(np.diff(down) > 0)

    def test_minimizer_continuity(self):
        model = table_model(0.7)
        ys, zs = [], []
        for k in np.arange(-0.2, 0.21, 0.02):
            if abs(k) < 1e-12:
                continue
            pt = european_rate(model, math.exp(k))
            ys.append(pt.minimizer_y)
            zs.append(pt.minimizer_z)
        jumps_y = np.abs(np.diff(ys))
        jumps_z = np.abs(np.diff(zs))
        assert jumps_y.max() <= 5 * np.median(jumps_y) + 1e-9
        assert jumps_z.max() <= 5 * np.median(jumps_z) + 1e-9

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    @pytest.mark.parametrize("solve", [european_rate, vix_rate])
    def test_rho_one_uncertified(self, solve, rho):
        # the objective divides by 1 - rho^2: off the money no point is
        # certified, and the money keeps its rate 0
        model = table_model(rho)
        reference = model.s0 if solve is european_rate else vix_spot(model)
        pt = solve(model, 1.1 * reference)
        assert (pt.iterations, pt.converged) == (0, False)
        assert all(math.isnan(x) for x in (pt.rate, pt.minimizer_y, pt.minimizer_z))
        atm = solve(model, reference)
        assert (atm.rate, atm.converged) == (0.0, True)
        with pytest.raises(ValueError):
            solve(model, 0.0)

    def test_heston_vol_of_vol_small_k(self):
        # square-root factor: the leading coefficient is still 1/(2 eta0^2 V0)
        model = table_model(0.0, vol_of_vol=SquareRootVolOfVol(0.6))
        k = 0.04
        pt = european_rate(model, math.exp(k))
        assert pt.converged
        assert pt.rate == pytest.approx(k * k / 0.2, rel=0.05)


class TestVixRate:
    def test_atm_is_zero(self):
        model = table_model(-0.7)
        pt = vix_rate(model, vix_spot(model) * (1.0 + 1e-12))
        assert pt.rate == pytest.approx(0.0, abs=1e-9)

    def test_pure_stochastic_vol_lognormal(self):
        # eta = 1: J = log^2(K^2/V0) / (2 sigma^2); K/sqrt(V0) = 1.2, sigma = 2
        model = LsvModel(s0=1.0, v0=1.0, rho=-0.3, local_vol=ConstantLocalVol(),
                         vol_of_vol=LognormalVolOfVol(2.0))
        pt = vix_rate(model, 1.2)
        expected = math.log(1.44) ** 2 / 8.0
        assert expected == pytest.approx(0.01662057, abs=1e-7)
        assert pt.rate == pytest.approx(expected, rel=1e-12)

    def test_constant_dispatch_matches_closed_form(self):
        model = LsvModel(s0=1.0, v0=0.09, rho=0.0, local_vol=ConstantLocalVol(),
                         vol_of_vol=LognormalVolOfVol(1.5))
        for strike in (0.25, 0.35):
            pt = vix_rate(model, strike)
            assert abs(pt.rate - stochvol_vix_rate(model.vol_of_vol, model.v0, strike)) <= 1e-12

    @pytest.mark.parametrize("name", ["constant_lognormal_rho_m07", "tanh_sqrt_rho_m07"])
    @pytest.mark.parametrize("k", [-0.3, 0.3])
    def test_constant_eta_minimizer_matches_general_solve(self, name, k):
        # the closed form's minimiser against the general solver on a
        # near-flat tanh eta, which takes the two-variable path
        base = load_model(str(MODELS_DIR / f"{name}.json"))

        def with_local_vol(local_vol):
            return LsvModel(s0=base.s0, v0=base.v0, rho=base.rho, local_vol=local_vol,
                            vol_of_vol=base.vol_of_vol, r=base.r, q=base.q)

        exact = vix_rate(with_local_vol(ConstantLocalVol()), math.sqrt(base.v0) * math.exp(k))
        flat = with_local_vol(TanhLocalVol(1.0, 1e-9))
        general = vix_rate(flat, vix_spot(flat) * math.exp(k))
        assert exact.iterations == 0 and general.iterations > 0 and general.converged
        assert exact.minimizer_z == pytest.approx(general.minimizer_z, rel=1e-8)
        assert exact.minimizer_z != base.v0

    @pytest.mark.parametrize("vol_of_vol", [LognormalVolOfVol(2.0), SquareRootVolOfVol(1.0)])
    def test_constant_eta_minimizer_at_the_money_limit(self, vol_of_vol):
        # mean_variance takes w = log(v / v0)
        assert vol_of_vol.mean_variance(0.0, 0.1) == 0.1
        assert vol_of_vol.mean_variance(math.log1p(1e-12), 0.1) == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_constant_eta_at_full_correlation(self, rho):
        # eta0 sqrt(V_T) reads no spot path, so the closed form holds at |rho| = 1 too
        model = LsvModel(s0=1.0, v0=0.09, rho=rho, local_vol=ConstantLocalVol(),
                         vol_of_vol=LognormalVolOfVol(1.5))
        pt = vix_rate(model, 0.35)
        assert pt.converged
        assert pt.rate == pytest.approx(stochvol_vix_rate(model.vol_of_vol, model.v0, 0.35), rel=1e-15)

    @pytest.mark.parametrize("rho", [-0.7, 0.0, 0.7])
    def test_small_x_leading_coefficient(self, rho):
        # even average of the wings kills the cubic term
        model = table_model(rho)
        sigma, v0, eta1 = 2.0, 0.1, -0.5
        d = (sigma + 2 * rho * eta1 * math.sqrt(v0)) ** 2 + 4 * (1 - rho**2) * eta1**2 * v0
        j1 = 2.0 / d
        x = 0.02
        f0 = vix_spot(model)
        avg = 0.5 * (vix_rate(model, f0 * math.exp(x)).rate + vix_rate(model, f0 * math.exp(-x)).rate)
        assert avg / (x * x) == pytest.approx(j1, rel=1e-2)

    def test_wings_monotone(self):
        model = table_model(-0.7)
        f0 = vix_spot(model)
        xs = np.linspace(0.05, 0.6, 9)
        up = [vix_rate(model, f0 * math.exp(x)).rate for x in xs]
        down = [vix_rate(model, f0 * math.exp(-x)).rate for x in xs]
        assert np.all(np.diff(up) > 0)
        assert np.all(np.diff(down) > 0)

    def test_strike_outside_eta_band_flagged(self):
        # K far above the VIX spot: the terminal variance has to move far
        model = table_model(0.0)
        f0 = vix_spot(model)
        pt = vix_rate(model, f0 * math.exp(1.5))
        assert pt.converged
        assert pt.rate > 0.0


class TestStochvolVixRate:
    def test_zero_at_mapped_spot(self):
        spec = LognormalVolOfVol(2.0)
        assert stochvol_vix_rate(spec, 0.1, math.sqrt(0.1)) == pytest.approx(0.0, abs=1e-15)

    def test_meanrev_lognormal_mapping(self):
        from lsv_shortmat.smile import VixMapping
        spec = LognormalVolOfVol(1.5)
        m = VixMapping(alpha=0.9, beta=0.004)
        k = 0.25
        expected = math.log((k * k - 0.004) / (0.9 * 0.05)) ** 2 / (2 * 1.5**2)
        assert stochvol_vix_rate(spec, 0.05, k, m) == pytest.approx(expected, rel=1e-12)

    def test_square_root_identity_mapping(self):
        spec = SquareRootVolOfVol(0.7)
        v0, k = 0.04, 0.3
        expected = 2.0 * (k - math.sqrt(v0)) ** 2 / 0.49
        assert stochvol_vix_rate(spec, v0, k) == pytest.approx(expected, rel=1e-12)

    def test_floor_violation(self):
        from lsv_shortmat.smile import VixMapping
        spec = LognormalVolOfVol(1.0)
        with pytest.raises(ValueError):
            stochvol_vix_rate(spec, 0.05, 0.05, VixMapping(alpha=0.9, beta=0.004))


class TestSabrClosedForm:
    def test_zero_at_spot(self):
        assert sabr_rate_closed(sabr_model(-0.5), 1.0) == 0.0

    def test_uncorrelated_is_asinh(self):
        model = sabr_model(0.0, sigma=2.0, v0=0.1)
        k = 0.25
        zeta = (2.0 / 2.0) * k / math.sqrt(0.1)
        expected = 2.0 / 4.0 * math.asinh(zeta) ** 2
        assert sabr_rate_closed(model, math.exp(k)) == pytest.approx(expected, rel=1e-12)

    def test_reference_point(self):
        # rho = -0.5, zeta = 0.2 at unit vol-of-vol: 2 log^2(1.2330302)
        model = sabr_model(-0.5, sigma=1.0, v0=1.0)
        strike = math.exp(0.4)  # zeta = 0.5 * 0.4 / 1 = 0.2
        expected = 2.0 * math.log((math.sqrt(0.84) + 0.2 - 0.5) / 0.5) ** 2
        assert expected == pytest.approx(0.0877594, abs=1e-6)
        assert sabr_rate_closed(model, strike) == pytest.approx(expected, rel=1e-12)

    def test_requires_lognormal_and_flat_eta(self):
        with pytest.raises(ValueError):
            sabr_rate_closed(table_model(0.0), 1.1)

    def test_guards_read_the_formula_inputs(self):
        # elasticity 0 from variance_leg and eta flat at 1 from its Taylor
        # coefficients, whatever the spec classes
        want = sabr_rate_closed(sabr_model(-0.5), 1.1)
        for flat in (TaylorLocalVol(1.0), TanhLocalVol(1.0, 0.0)):
            model = LsvModel(s0=1.0, v0=0.1, rho=-0.5, local_vol=flat, vol_of_vol=LognormalVolOfVol(2.0))
            assert sabr_rate_closed(model, 1.1) == want
        for local_vol, vol_of_vol in ((TaylorLocalVol(1.1), LognormalVolOfVol(2.0)),
                                      (TaylorLocalVol(1.0, 0.0, 0.1), LognormalVolOfVol(2.0)),
                                      (ConstantLocalVol(), SquareRootVolOfVol(1.0))):
            model = LsvModel(s0=1.0, v0=0.1, rho=-0.5, local_vol=local_vol, vol_of_vol=vol_of_vol)
            with pytest.raises(ValueError):
                sabr_rate_closed(model, 1.1)

    def test_no_cancellation_as_rho_tends_to_minus_one(self):
        # sigma = 2 and v0 = 1 make zeta the float log-moneyness itself, so
        # the oracle sees the closed form's own inputs and any error is the
        # formula's rounding.  Half the draws put 1 + rho log-uniform in
        # [1e-12, 2], where the sums S + 1 + 2 rho + zeta and 1 + 2 rho zeta +
        # zeta^2 used to fall to O(1 + rho) from O(1) terms (a relative error
        # of 6.5e-4 at 1 + rho = 1e-12); the other half draw rho uniformly
        rng = np.random.default_rng(27)
        worst = 0.0
        for i in range(20_000):
            if i % 2:
                rho = -1.0 + 10.0 ** rng.uniform(-12.0, math.log10(2.0))
            else:
                rho = rng.uniform(-1.0, 1.0)
            rho = min(max(rho, -1.0 + 1e-12), 1.0 - 1e-12)
            zeta = rng.choice((-1.0, 1.0)) * (10.0 ** rng.uniform(-9.0, 0.0) if i % 3 == 0 else rng.uniform(0.0, 1.0))
            model = sabr_model(rho, sigma=2.0, v0=1.0)
            strike = math.exp(zeta)
            want = sabr_rate_mp(model, strike, dps=40)
            if want > 0.0:
                worst = max(worst, abs(sabr_rate_closed(model, strike) - want) / want)
        # 45 eps; measured 3.1e-15 when the sums were rewritten
        assert worst <= 1e-14, worst


def heston_rate_oracle(rho, sigma, v0, x):
    """sup_p [p x - Lambda(p)] with the Heston short-time cumulant
    Lambda(p) = v0 p / (sigma (rhobar cot(sigma rhobar p / 2) - rho)),
    rhobar = sqrt(1 - rho^2) (Forde & Jacquier 2009), written independently
    of the package: the maximiser solves Lambda'(p) = x by Brent iteration
    between p = 0 and the pole on the side of x."""
    rb = math.sqrt(1.0 - rho * rho)

    def lam(p):
        return v0 * p / (sigma * (rb / math.tan(0.5 * sigma * rb * p) - rho))

    def dlam(p):
        th = 0.5 * sigma * rb * p
        d = rb / math.tan(th) - rho
        d1 = -0.5 * sigma * rb * rb / math.sin(th) ** 2
        return v0 * (d - p * d1) / (sigma * d * d)

    top = 2.0 * math.atan2(rb, rho) / (sigma * rb)
    pole = top if x > 0.0 else top - 2.0 * math.pi / (sigma * rb)
    p = brentq(lambda q: dlam(q) - x, pole * 1e-9, pole * (1.0 - 1e-12), xtol=1e-300, rtol=8.9e-16)
    return p * x - lam(p)


class TestLiteratureReductions:
    """The reductions the paper says its asymptotics reproduce."""

    @pytest.mark.parametrize("rho", [-0.7, -0.3, 0.0, 0.5])
    @pytest.mark.parametrize("k", [-0.3, -0.1, 0.1, 0.3])
    def test_heston(self, rho, k):
        # constant local vol with a square-root factor is the Heston model
        model = LsvModel(s0=1.0, v0=0.04, rho=rho, local_vol=ConstantLocalVol(),
                         vol_of_vol=SquareRootVolOfVol(1.0))
        pt = european_rate(model, math.exp(k))
        assert pt.converged
        assert pt.rate == pytest.approx(heston_rate_oracle(rho, 1.0, 0.04, k), rel=1e-12)

    @pytest.mark.parametrize("family", ["lognormal", "square_root"])
    @pytest.mark.parametrize("k", [-0.3, -0.1, 0.1, 0.3])
    def test_uncorrelated_lsv(self, family, k):
        # at rho = 0, J_LSV(e^k) = J_SV(e^L) with L the integral of 1/eta
        # over [0, k] (Forde & Jacquier 2011)
        vol = LognormalVolOfVol(1.0) if family == "lognormal" else SquareRootVolOfVol(1.0)
        lsv = LsvModel(s0=1.0, v0=0.04, rho=0.0, local_vol=TanhLocalVol(1.0, -0.5, 0.2), vol_of_vol=vol)
        sv = LsvModel(s0=1.0, v0=0.04, rho=0.0, local_vol=ConstantLocalVol(), vol_of_vol=vol)
        big_l = lsv.local_vol.inv_eta_integral(k)
        if family == "lognormal":
            expected = sabr_rate_closed(sv, math.exp(big_l))
        else:
            expected = heston_rate_oracle(0.0, 1.0, 0.04, big_l)
        pt = european_rate(lsv, math.exp(k))
        assert pt.converged
        assert pt.rate == pytest.approx(expected, rel=1e-12)


class TestVixBandEdges:
    @pytest.mark.parametrize("eta1", [-0.3, 0.3])
    @pytest.mark.parametrize("k", [-0.2, 0.2])
    @pytest.mark.parametrize("vol", [LognormalVolOfVol(1.0), SquareRootVolOfVol(1.0)], ids=["lognormal", "square_root"])
    def test_eta_reaching_zero_leaves_band_open(self, eta1, k, vol):
        # eta = 1 + eta1 k vanishes inside the +-50 window; beyond the zero
        # the objective is undefined and the solver steps back
        model = LsvModel(s0=1.0, v0=0.04, rho=-0.5, local_vol=TaylorLocalVol(eta0=1.0, eta1=eta1),
                         vol_of_vol=vol)
        assert min(model.local_vol.eta(-50.0), model.local_vol.eta(50.0)) < 0.0
        pt = vix_rate(model, vix_spot(model) * math.exp(k))
        assert pt.converged and math.isfinite(pt.rate) and pt.rate > 0.0

    # f1 = 1e-16 is below rounding: eta is constant, though f1 is not 0
    @pytest.mark.parametrize("spec", [TanhLocalVol(1.3, 0.0), TaylorLocalVol(1.3), TanhLocalVol(1.3, 1e-16)])
    def test_constant_eta_pins_the_variance(self, spec):
        # VIX = 1.3 sqrt(V_T): the strike fixes V_T = K^2 / 1.3^2
        model = LsvModel(s0=1.0, v0=0.04, rho=-0.5, local_vol=spec, vol_of_vol=LognormalVolOfVol(1.0))
        strike = 0.3
        pt = vix_rate(model, strike)
        assert pt.converged
        assert pt.rate == pytest.approx(math.log(strike**2 / 1.69 / 0.04) ** 2 / 2.0, rel=1e-14)

    @pytest.mark.parametrize("vol", [LognormalVolOfVol(1.832), SquareRootVolOfVol(1.832)],
                             ids=["lognormal", "square_root"])
    @pytest.mark.parametrize("f1", [-1e-10, -2e-5, 3e-4])
    def test_nearly_flat_eta_tends_to_the_pinned_variance(self, vol, f1):
        # eta = f0 + f1 tanh(k - x0): the band of y spans 4|f1|/f0, where a
        # search in y stopped uncertified.  Oracle: as f1 -> 0 the VIX pins
        # V_T = K^2/f0^2 and the minimiser's spot level solves N = 0,
        # k* = f0 rho Q(y0).  By the envelope theorem the rate moves by
        # f1 dJ/df1 = f1 (dJ_v/dw) (-2 tanh(k* - x0) / f0) to first order,
        # J_v(w) being the pinned-variance rate at w = y - log v0.
        v0, rho, f0, x0 = 0.3691, 0.5918, 1.9268, -0.48315
        strike = f0 * math.sqrt(v0) * math.exp(0.3354)
        v = (strike / f0) ** 2
        j0 = vol.variance_rate(math.log(v / v0), v0)
        if isinstance(vol, LognormalVolOfVol):
            dj_dw = math.log(v / v0) / vol.sigma**2
        else:
            dj_dw = 2.0 * math.sqrt(v) * (math.sqrt(v) - math.sqrt(v0)) / vol.sigma**2
        k_star = f0 * rho * vol.variance_leg(math.log(v / v0), v0)[0]
        slope = -2.0 * dj_dw * math.tanh(k_star - x0) / f0
        assert 0.05 < abs(slope) < 0.2
        model = LsvModel(s0=1.0, v0=v0, rho=rho, local_vol=TanhLocalVol(f0, f1, x0), vol_of_vol=vol)
        pt = vix_rate(model, strike)
        assert pt.converged and not pt.boundary_hit
        # second-order remainder: about 0.12 f1^2 (lognormal), 0.08 f1^2 (square-root)
        assert abs(pt.rate - j0 - slope * f1) <= 0.2 * f1 * f1 + 1e-14 * j0

    @pytest.mark.parametrize("vol,x,rate", [
        (LognormalVolOfVol(1.0), -0.2, 0.08309), (LognormalVolOfVol(1.0), 0.2, 0.08324),
        (SquareRootVolOfVol(0.5), -0.2, 0.01064), (SquareRootVolOfVol(0.5), 0.2, 0.01601)])
    def test_non_monotone_positive_eta(self, vol, x, rate):
        # eta = 1 + 0.1 k + 0.2 k^2 is positive with a minimum at k = -0.25,
        # so eta^2 has no inverse; the constraint curve over k needs none
        model = LsvModel(s0=1.0, v0=0.04, rho=-0.5, local_vol=TaylorLocalVol(1.0, 0.1, 0.2), vol_of_vol=vol)
        strike = vix_spot(model) * math.exp(x)
        pt = vix_rate(model, strike)
        assert pt.converged and not pt.boundary_hit
        assert pt.rate == pytest.approx(_vix_curve_oracle(model, strike), rel=1e-11)
        assert pt.rate == pytest.approx(rate, abs=5e-6)

    # eta = 1 + 0.1 k^2 takes the same value at both ends of the +-50
    # window, which a constancy test on those ends took for a constant eta;
    # eta = 1 + 0.1 k - 0.5 k^2 is negative at both ends, which a range of
    # eta^2 over the window rejected.  Neither is constant or needs a range.
    @pytest.mark.parametrize("spec,vol,x,rate", [
        (TaylorLocalVol(1.0, 0.0, 0.1), LognormalVolOfVol(1.0), -0.2, 0.08010489295),
        (TaylorLocalVol(1.0, 0.0, 0.1), LognormalVolOfVol(1.0), 0.2, 0.07984262517),
        (TaylorLocalVol(1.0, 0.0, 0.1), SquareRootVolOfVol(0.5), -0.2, 0.01051638404),
        (TaylorLocalVol(1.0, 0.0, 0.1), SquareRootVolOfVol(0.5), 0.2, 0.01567943509),
        (TaylorLocalVol(1.0, 0.1, -0.5), LognormalVolOfVol(1.0), -0.2, 0.08238302532),
        (TaylorLocalVol(1.0, 0.1, -0.5), LognormalVolOfVol(1.0), 0.2, 0.08427198225),
        (TaylorLocalVol(1.0, 0.1, -0.5), SquareRootVolOfVol(0.5), -0.2, 0.01063166664),
        (TaylorLocalVol(1.0, 0.1, -0.5), SquareRootVolOfVol(0.5), 0.2, 0.01605981074)])
    def test_taylor_eta_judged_at_the_money(self, spec, vol, x, rate):
        model = LsvModel(s0=1.0, v0=0.04, rho=-0.5, local_vol=spec, vol_of_vol=vol)
        strike = vix_spot(model) * math.exp(x)
        pt = vix_rate(model, strike)
        assert pt.converged and not pt.boundary_hit and pt.iterations > 0
        assert pt.rate == pytest.approx(_vix_curve_oracle(model, strike), rel=1e-11)
        assert pt.rate == pytest.approx(rate, abs=1e-10)


def _vix_curve_oracle(model, strike):
    """The VIX rate by brute force over (log u, k) on the constraint curve:
    Nelder-Mead and polish from nine starts on the value functions
    h_lognormal / h_heston, integral_IS and the spec's ``variance_leg``,
    with eta(k) <= 0 or a raising integral_IS scored as +inf."""
    spec, vol = model.local_vol, model.vol_of_vol
    h_fn = h_lognormal if isinstance(vol, LognormalVolOfVol) else h_heston
    v0, rho = model.v0, model.rho

    def objective(log_u, k):
        eta = float(spec.eta(k))
        if not eta > 0.0:
            return math.inf
        try:
            i_s = integral_IS(spec, model.s0, math.exp(k))
        except ValueError:
            return math.inf
        y, z = math.log(strike * strike / (eta * eta)), v0 * math.exp(log_u)
        num = i_s - rho * vol.variance_leg(y - math.log(v0), v0)[0]
        return num * num / (2.0 * (1.0 - rho * rho) * z) + h_fn(y, z, v0, vol.sigma)

    starts = [(log_u, k) for log_u in (-0.5, 0.0, 0.5) for k in (-1.0, -0.25, 0.5)]
    return _replaced_minimize_2d(objective, starts)


class TestRateToImpvol:
    def test_inversion_identity(self):
        sigma0, k = 0.25, 0.1
        rate = k * k / (2 * sigma0 * sigma0)
        assert rate_to_impvol(rate, k) == pytest.approx(sigma0, rel=1e-14)

    def test_numeric_example(self):
        assert rate_to_impvol(0.0125, 0.05) == pytest.approx(0.31622777, abs=1e-7)

    def test_hagan_form_reproduced(self):
        # impvol from the closed-form rate equals sqrt(V0) zeta / log(chi)
        model = sabr_model(-0.6, sigma=1.4, v0=0.09)
        for k in (-0.4, -0.1, 0.2, 0.5):
            zeta = 0.7 * k / 0.3
            chi = math.log((math.sqrt(1 + 2 * (-0.6) * zeta + zeta**2) + zeta - 0.6) / 0.4)
            hagan = 0.3 * zeta / chi
            got = rate_to_impvol(sabr_rate_closed(model, math.exp(k)), k)
            assert got == pytest.approx(hagan, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            rate_to_impvol(0.0, 0.1)
        with pytest.raises(ValueError):
            rate_to_impvol(0.1, 0.0)


# ---------------------------------------------------------------------------
# the numeric path the tanh closed forms replaced, kept here as the oracle
# ---------------------------------------------------------------------------

_LEG_NODES, _LEG_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _reference_quadrature(f, a, b, depth=0):
    def panel(lo, hi):
        return 0.5 * (hi - lo) * float(np.dot(_LEG_WEIGHTS, f(0.5 * (lo + hi) + 0.5 * (hi - lo) * _LEG_NODES)))

    mid = 0.5 * (a + b)
    whole, split = panel(a, b), panel(a, mid) + panel(mid, b)
    if abs(split - whole) <= 1e-10 * max(abs(split), 1e-300) or depth >= 40:
        return split
    return _reference_quadrature(f, a, mid, depth + 1) + _reference_quadrature(f, mid, b, depth + 1)


def _reference_inv_eta_integral(spec, length):
    return _reference_quadrature(lambda t: 1.0 / spec.eta(t), 0.0, length)


class TestReplacedPathRegression:
    MODELS = {
        "tanh_lognormal_rho_m07": table_model(-0.7),
        "tanh_lognormal_rho_0": table_model(0.0),
        "tanh_lognormal_rho_p07": table_model(0.7),
        "tanh_sqrt_rho_m07": table_model(-0.7, vol_of_vol=SquareRootVolOfVol(1.0)),
    }
    LOG_MONEYNESS = (-0.3, -0.15, -0.05, -0.01, 0.01, 0.05, 0.15, 0.3)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_rates_match_numeric_path(self, name, monkeypatch):
        model = self.MODELS[name]
        f0 = vix_spot(model)
        cases = [(european_rate, model.s0), (vix_rate, f0)]
        fast = [solve(model, ref * math.exp(k)).rate for solve, ref in cases for k in self.LOG_MONEYNESS]
        # both products reach the spot integral through the spec method
        monkeypatch.setattr(TanhLocalVol, "inv_eta_integral", _reference_inv_eta_integral)
        slow = [solve(model, ref * math.exp(k)).rate for solve, ref in cases for k in self.LOG_MONEYNESS]
        assert np.max(np.abs(np.subtract(fast, slow))) <= 1e-12


# ---------------------------------------------------------------------------
# the trust-region Newton solver
# ---------------------------------------------------------------------------

MODELS_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "models"
MODEL_FILES = sorted(MODELS_DIR.glob("*.json"))


def _leg(model, product, log_moneyness):
    """The solver's leg for one strike, as european_rate / vix_rate build
    it: over w for European options, over k on the VIX constraint curve for
    VIX options."""
    if product == "european":
        i_s = integral_IS(model.local_vol, model.s0, math.exp(log_moneyness))
        return lambda w: (w, 1.0, 0.0, i_s, 0.0, 0.0)
    return rate_solver._vix_leg(model, vix_spot(model) * math.exp(log_moneyness))


def _objective(model, product, log_moneyness):
    """The solver's objective for one strike, at the iterate (t, s) with the
    leg of :func:`_leg`."""
    return rate_solver._rate_objective(model, _leg(model, product, log_moneyness))


def _at(evaluate, log_u, s):
    """``evaluate`` at the model point (log u, s): its iterate, found by
    Newton on the chart from the spec's start (``path_iterate``), to rounding."""
    cur = evaluate(None, s, log_u)
    for _ in range(20):
        t, got = cur[4][:2]
        if got == log_u:
            break
        cur = evaluate(t + (log_u - got) / cur[4][2], s)
    assert abs(cur[4][1] - log_u) <= 1e-15 * max(1.0, abs(log_u))
    return cur


def _value_objective(model, product, log_moneyness):
    """The objective's value over (log u, w), w = y - log v0, built from the
    public value functions alone: h_lognormal / h_heston, the spec's
    ``variance_leg`` and integral_IS, for VIX options up to the spot level that the tanh
    closed-form inverse gives for eta^2 = K^2 e^{-y}.  Independent of the
    solver's parametrisation of the VIX constraint curve."""
    vol = model.vol_of_vol
    h_fn = h_lognormal if isinstance(vol, LognormalVolOfVol) else h_heston
    v0, rho, log_v0 = model.v0, model.rho, math.log(model.v0)
    if product == "european":
        i_s = integral_IS(model.local_vol, model.s0, math.exp(log_moneyness))
        spot = lambda y: i_s  # noqa: E731
    else:
        k2 = (vix_spot(model) * math.exp(log_moneyness)) ** 2

        def spot(y):
            k = tanh_eta_sq_log_inverse(model.local_vol, k2 * math.exp(-y))
            return integral_IS(model.local_vol, model.s0, math.exp(k))

    def objective(log_u, w):
        z, y = v0 * math.exp(log_u), log_v0 + w
        num = spot(y) - rho * vol.variance_leg(w, v0)[0]
        return num * num / (2.0 * (1.0 - rho * rho) * z) + h_fn(y, z, v0, vol.sigma)

    return objective


def _solve(model, product, log_moneyness):
    if product == "european":
        return european_rate(model, model.s0 * math.exp(log_moneyness))
    return vix_rate(model, vix_spot(model) * math.exp(log_moneyness))


def _vix_w_band(model, log_moneyness):
    """Open range of w = y - log v0 where K^2 e^{-y} lies inside the range
    ((f0 - |f1|)^2, (f0 + |f1|)^2) of a tanh eta^2."""
    spec = model.local_vol
    lo, hi = spec.f0 - abs(spec.f1), spec.f0 + abs(spec.f1)
    w_lo, w_hi = lo * lo, hi * hi
    k2 = (vix_spot(model) * math.exp(log_moneyness)) ** 2
    return math.log(k2 / w_hi) - math.log(model.v0), math.log(k2 / w_lo) - math.log(model.v0)


class TestObjectiveDerivatives:
    @pytest.mark.parametrize("vol_of_vol", [LognormalVolOfVol(1.5), SquareRootVolOfVol(0.8)])
    @pytest.mark.parametrize("product", ["european", "vix"])
    @pytest.mark.parametrize("p", [(0.15, -0.2), (-0.1, 0.3)])
    def test_against_central_differences(self, vol_of_vol, product, p):
        # in the model coordinates (log u, s), whatever the spec's iterate
        model = table_model(-0.6, vol_of_vol=vol_of_vol)
        evaluate = _objective(model, product, 0.2)
        value, noise, grad, (h_uu, h_uw, h_ww), _ = _at(evaluate, *p)
        assert 0.0 < noise <= 1e-13 * max(1.0, value)
        h = 1e-5
        shifted = {}
        for d in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)):
            shifted[d] = _at(evaluate, p[0] + d[0], p[1] + d[1])
        fd_grad = ((shifted[(h, 0.0)][0] - shifted[(-h, 0.0)][0]) / (2 * h),
                   (shifted[(0.0, h)][0] - shifted[(0.0, -h)][0]) / (2 * h))
        for fd, exact in zip(fd_grad, grad):
            assert abs(fd - exact) <= 1e-7 * max(1.0, abs(exact)), (fd_grad, grad)
        # Hessian columns from differences of the analytic gradient
        col_u = [(a - b) / (2 * h) for a, b in zip(shifted[(h, 0.0)][2], shifted[(-h, 0.0)][2])]
        col_w = [(a - b) / (2 * h) for a, b in zip(shifted[(0.0, h)][2], shifted[(0.0, -h)][2])]
        scale = max(abs(h_uu), abs(h_uw), abs(h_ww))
        for fd, exact in zip((col_u[0], col_u[1], col_w[0], col_w[1]), (h_uu, h_uw, h_uw, h_ww)):
            assert abs(fd - exact) <= 1e-6 * scale, (col_u, col_w, (h_uu, h_uw, h_ww))


# the Nelder-Mead + coordinate-polish minimisation the trust-region solver
# replaced, kept here as the oracle


def _replaced_minimize_2d(objective, starts, y_bounds=None):
    box = rate_solver._BOX

    def obj(p):
        if max(abs(p[0]), abs(p[1])) > box:
            return math.inf
        if y_bounds is not None and not (y_bounds[0] < p[1] < y_bounds[1]):
            return math.inf
        return objective(p[0], p[1])

    best_p, best_v = None, math.inf
    for p0 in starts:
        p0 = np.asarray(p0, dtype=float)
        if not math.isfinite(obj(p0)):
            continue
        res = minimize(obj, p0, method="Nelder-Mead",
                       options=dict(xatol=1e-11, fatol=1e-15, maxiter=4000, maxfev=4000))
        if res.fun < best_v:
            best_v, best_p = float(res.fun), np.asarray(res.x)
    p, v, h = best_p, best_v, 1e-5
    for _ in range(25):
        g, hess = np.zeros(2), np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            vp, vm = obj(p + e), obj(p - e)
            if not (math.isfinite(vp) and math.isfinite(vm)):
                return v
            g[i] = (vp - vm) / (2 * h)
            hess[i] = (vp - 2 * v + vm) / (h * h)
        moved = False
        for i in range(2):
            if hess[i] > 0.0:
                cand = p.copy()
                cand[i] -= g[i] / hess[i]
                vc = obj(cand)
                if vc < v:
                    p, v, moved = cand, vc, True
        if not moved:
            h *= 0.1
            if h < 1e-9:
                break
    return v


def _replaced_rate(model, product, log_moneyness):
    """J by the replaced path: the value-only objective over (log u, w)
    (:func:`_value_objective`), Nelder-Mead from the replaced solver's
    starts, then the polish.  It started from the flat path and, for a
    lognormal factor, first from its own expansion log u = a k at
    w = 2 log u."""
    vol = model.vol_of_vol
    starts = [np.zeros(2)]
    if isinstance(vol, LognormalVolOfVol):
        sv0, rho = math.sqrt(model.v0), model.rho
        eta0, eta1, _, _ = model_mod.eta_log_coeffs(model.local_vol)
        if product == "vix":
            d = vol.sigma + 2.0 * rho * eta1 * sv0
            a = vol.sigma * d / (d * d + 2.0 * (1.0 - rho * rho) * eta1 * eta1 * model.v0)
        else:
            a = rho * vol.sigma / (2.0 * eta0 * sv0)
        starts.insert(0, np.array([a * log_moneyness, 2.0 * a * log_moneyness]))
    y_bounds = None
    if product == "vix":
        lo, hi = _vix_w_band(model, log_moneyness)
        y_bounds = (lo + 1e-12, hi - 1e-12)
        starts = [np.array([p[0], min(max(p[1], y_bounds[0] + 1e-9), y_bounds[1] - 1e-9)]) for p in starts]
    return _replaced_minimize_2d(_value_objective(model, product, log_moneyness), starts, y_bounds)


# the constant local-vol VIX rate is a closed form on both paths
REGRESSION_CASES = [(path, product) for path in MODEL_FILES for product in ("european", "vix")
                    if product == "european" or not isinstance(load_model(str(path)).local_vol, ConstantLocalVol)]


class TestReplacedSolverRegression:
    @pytest.mark.parametrize("path,product", REGRESSION_CASES, ids=lambda c: getattr(c, "stem", c))
    def test_rates_match_nelder_mead(self, path, product):
        model = load_model(str(path))
        worst = 0.0
        for k in np.linspace(-0.3, 0.3, 25):
            if abs(k) < 1e-12:
                continue
            pt = _solve(model, product, k)
            assert pt.converged and not pt.boundary_hit, k
            old = _replaced_rate(model, product, k)
            worst = max(worst, abs(pt.rate - old) / old)
        assert worst <= 1e-10


class TestTrustRegionSweep:
    """240 solves over rho in {0, +-0.5, +-0.9}, k in {+-0.1, +-0.3, +-0.5},
    two vol-of-vols per family and both products, each held to a brute-force
    41 x 41 grid minimum of its objective."""

    FAMILIES = [LognormalVolOfVol(1.0), LognormalVolOfVol(2.0), SquareRootVolOfVol(0.5), SquareRootVolOfVol(1.0)]
    RHOS = (0.0, 0.5, -0.5, 0.9, -0.9)
    KS = (0.1, -0.1, 0.3, -0.3, 0.5, -0.5)

    @pytest.mark.parametrize("vol_of_vol", FAMILIES, ids=lambda v: f"{type(v).__name__}-{v.sigma}")
    def test_converged_and_below_grid_minimum(self, vol_of_vol):
        solves = 0
        for rho in self.RHOS:
            model = table_model(rho, vol_of_vol=vol_of_vol)
            for k in self.KS:
                for product in ("european", "vix"):
                    pt = _solve(model, product, k)
                    solves += 1
                    assert pt.converged and not pt.boundary_hit, (rho, k, product, pt)
                    w_lo, w_hi = -3.0, 3.0
                    if product == "vix":
                        lo, hi = _vix_w_band(model, k)
                        w_lo, w_hi = max(w_lo, lo + 1e-6), min(w_hi, hi - 1e-6)
                    evaluate = _value_objective(model, product, k)
                    grid_min = min(evaluate(log_u, w) for log_u in np.linspace(-2.0, 2.0, 41)
                                   for w in np.linspace(w_lo, w_hi, 41))
                    assert pt.rate <= grid_min * (1.0 + 1e-12), (rho, k, product, pt.rate, grid_min)
        assert solves == 60

    @pytest.mark.parametrize("k", [-0.3, -0.5])
    def test_indefinite_start(self, k):
        # square-root European at sigma = 1, rho = -0.9: the Hessian at the
        # flat path (0, 0) is indefinite, where a line-search Newton runs
        # away; the solver itself starts from the quadratic model's minimiser
        model = table_model(-0.9, vol_of_vol=SquareRootVolOfVol(1.0))
        evaluate = _objective(model, "european", k)
        # the iterate (0, 0) is the flat path for either factor
        _, _, _, (h_uu, h_uw, h_ww), chart = evaluate(0.0, 0.0)
        assert chart[1] == 0.0
        assert h_uu * h_ww - h_uw * h_uw < 0.0
        _, _, evals, converged, _ = rate_solver._minimize(evaluate, (0.0, 0.0))
        assert converged and evals <= 12
        pt = european_rate(model, math.exp(k))
        assert pt.converged and pt.iterations <= 12


class TestSingleSolver:
    @pytest.mark.parametrize("path", MODEL_FILES, ids=lambda p: p.stem)
    def test_no_scipy_minimiser_runs(self, path):
        # the package imports no scipy (test_structure), so every solve on
        # the default grid must be certified by the one trust-region solver
        model = load_model(str(path))
        # the CLI's default smile/rate grid
        for k in np.linspace(-0.3, 0.3, 21):
            if abs(k) < 1e-12:
                continue
            for product in ("european", "vix"):
                pt = _solve(model, product, k)
                assert pt.converged, (path.stem, product, k)

    def test_uncertified_inner_transform_is_reported(self, monkeypatch):
        # a square-root path rate that cannot be evaluated makes the solve
        # report converged=False instead of raising mid-objective
        model = table_model(-0.7, vol_of_vol=SquareRootVolOfVol(1.0))
        monkeypatch.setattr(heston_rate, "_profile_terms", lambda u: None)
        for pt in (european_rate(model, math.exp(0.2)), vix_rate(model, vix_spot(model) * math.exp(0.2))):
            assert not pt.converged


class TestNearMoney:
    def test_absolute_accuracy_floor(self):
        # J is good to 1e-14 absolute on the whole grid; its relative
        # precision at the money is pinned by TestRelativeAccuracyAtTheMoney
        model = load_model(str(MODELS_DIR / "constant_lognormal_rho_m07.json"))
        for a in np.geomspace(1e-4, 0.3, 81):
            for k in (-a, a):
                strike = math.exp(k)
                pt = european_rate(model, strike)
                assert pt.converged, k
                assert abs(pt.rate - sabr_rate_closed(model, strike)) <= 1e-14, k


class TestRelativeAccuracyAtTheMoney:
    """The objective's terms are each of their own order about the flat
    path, so J ~ k^2 keeps its relative precision at the money: the solve,
    the closed form and mpmath agree to 1e-12 relative down to |k| = 1e-8."""

    KS = [sign * a for a in np.geomspace(1e-8, 0.3, 29) for sign in (-1.0, 1.0)]

    def test_rate_against_mpmath_and_closed_form(self):
        model = load_model(str(MODELS_DIR / "constant_lognormal_rho_m07.json"))
        for k in self.KS:
            strike = math.exp(k)
            pt = european_rate(model, strike)
            want = sabr_rate_mp(model, strike)
            assert pt.converged, k
            assert abs(pt.rate - want) <= 1e-12 * want, (k, pt.rate, want)
            assert abs(sabr_rate_closed(model, strike) - want) <= 1e-12 * want, k

    def test_closed_form_against_mpmath(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            rho, sigma, v0 = rng.uniform(-0.99, 0.99), rng.uniform(0.2, 3.0), rng.uniform(0.01, 1.0)
            zeta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, 0.0)
            model = sabr_model(rho, sigma, v0)
            strike = math.exp(2.0 * zeta * math.sqrt(v0) / sigma)
            want = sabr_rate_mp(model, strike)
            assert abs(sabr_rate_closed(model, strike) - want) <= 5e-14 * want, (rho, sigma, v0, zeta)


class TestEvaluationBudget:
    # objective evaluations summed over the 14 grids of 25 strikes, as
    # measured when the budget was set: a change may spend fewer, and one
    # that spends more raises the budget knowingly
    BUDGET = 1153

    def test_grid_evaluations_do_not_grow(self):
        counts = {}
        for path in MODEL_FILES:
            model = load_model(str(path))
            for solve, reference in ((european_rate, model.s0), (vix_rate, vix_spot(model))):
                counts[path.stem, solve.__name__] = sum(
                    solve(model, reference * math.exp(k)).iterations
                    for k in cli._log_moneyness_grid(-0.3, 0.3, 25))
        assert len(counts) == 14
        assert sum(counts.values()) <= self.BUDGET, counts


SQRT_MODEL_FILES = [path for path in MODEL_FILES if isinstance(load_model(str(path)).vol_of_vol, SquareRootVolOfVol)]


class TestSquareRootIterate:
    """The square-root iterate is the Legendre maximiser u = a theta, so one
    profile evaluation serves each objective evaluation; the solve on the
    transform path it replaced (tests/oracles.py) is its oracle."""

    @pytest.mark.parametrize("product", ["european", "vix"])
    def test_one_profile_evaluation_per_objective_evaluation(self, product, monkeypatch):
        calls = {"terms": 0}
        profile_terms = heston_rate._profile_terms

        def counting(u):
            calls["terms"] += 1
            return profile_terms(u)

        monkeypatch.setattr(heston_rate, "_profile_terms", counting)
        model = load_model(str(MODELS_DIR / "tanh_sqrt_rho_m07.json"))
        for k in (-0.3, -0.1, 0.02, 0.15, 0.3):
            calls["terms"] = 0
            pt = _solve(model, product, k)
            assert pt.converged and pt.iterations > 0
            # at most one more for the start
            assert pt.iterations <= calls["terms"] <= pt.iterations + 1, (k, pt.iterations, calls)

    @pytest.mark.parametrize("path", SQRT_MODEL_FILES, ids=lambda p: p.stem)
    @pytest.mark.parametrize("product", ["european", "vix"])
    def test_rates_match_the_transform_path(self, path, product, monkeypatch):
        model = load_model(str(path))
        ks = [sign * a for a in np.geomspace(1e-8, 0.3, 15) for sign in (-1.0, 1.0)]
        new = [_solve(model, product, k) for k in ks]
        monkeypatch.setattr(SquareRootVolOfVol, "path_rate", transform_path_rate)
        monkeypatch.setattr(SquareRootVolOfVol, "path_iterate", transform_path_iterate)
        old = [_solve(model, product, k) for k in ks]
        for k, a, b in zip(ks, new, old):
            assert a.converged and b.converged, k
            assert abs(a.rate - b.rate) <= 1e-13 * b.rate, (k, a.rate, b.rate)


class TestStart:
    """The solver starts from the minimiser of the objective's quadratic
    model at the flat path (:func:`rate_solver._start`), which rests on H and
    Q having the same second-order terms there for both factors."""

    @pytest.mark.parametrize("family", [LognormalVolOfVol, SquareRootVolOfVol], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("drift", [ZeroDrift(), ConstantDrift(0.3), MeanRevertingDrift(2.0, 0.05)],
                             ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("v0", [0.01, 0.1, 0.7])
    def test_flat_path_model(self, family, drift, v0):
        vol = family(0.8, drift)
        scale = vol.sigma_at(v0) ** -2
        # the iterate 0 is the flat path, log u = w = 0, for either factor
        value, _, grad, hess, chart = vol.path_rate(0.0, 0.0, v0)
        assert chart[0] == 0.0
        assert value == pytest.approx(0.0, abs=1e-14 * scale)
        assert grad == pytest.approx((0.0, 0.0), abs=1e-14 * scale)
        assert hess == pytest.approx((12.0 * scale, -6.0 * scale, 4.0 * scale), rel=1e-14, abs=0.0)
        slope = vol.variance_leg(0.0, v0)[1]
        assert slope == pytest.approx(math.sqrt(v0) / vol.sigma_at(v0), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("name", ["tanh_lognormal_rho_m07", "tanh_lognormal_rho_0", "tanh_lognormal_rho_p07",
                                      "tanh_sqrt_rho_m07", "tanh_sqrt_rho_0"])
    @pytest.mark.parametrize("product", ["european", "vix"])
    def test_first_order_minimiser(self, name, product):
        # the start at x = 1e-6, over x, against the Richardson slope of the
        # solved minimiser in (log u, w)
        model = load_model(str(MODELS_DIR / f"{name}.json"))
        x = 1e-6
        leg = _leg(model, product, x)
        log_u, s = rate_solver._start(model, leg)
        start = (log_u / x, leg(s)[0] / x)

        def minimiser(h):
            pt = _solve(model, product, h)
            return np.array([math.log(pt.minimizer_z / model.v0), pt.minimizer_y - math.log(model.v0)])

        def central(h):
            return (minimiser(h) - minimiser(-h)) / (2.0 * h)

        slope = (4.0 * central(0.01) - central(0.02)) / 3.0
        for got, want in zip(start, slope):
            assert abs(got - want) <= 1e-3 * max(1.0, abs(want)), (start, slope)


class TestTrustStep:
    @pytest.mark.parametrize("g,h,radius", [
        ((1.0, -2.0), (3.0, 0.5, 2.0), 10.0),       # positive definite, Newton step fits
        ((1.0, -2.0), (3.0, 0.5, 2.0), 0.2),        # positive definite, on the boundary
        ((0.3, 0.1), (1.0, 2.0, -1.0), 0.5),        # indefinite
        ((0.0, 0.0), (1.0, 0.0, -2.0), 0.7),        # saddle point: negative curvature only
        ((1.0, 0.0), (1.0, 0.0, -2.0), 0.7),        # hard case: gradient orthogonal to it
        ((1e-30, 1.0), (-1.0, 0.0, -1.0), 0.3),     # negative definite
    ])
    def test_against_polar_grid(self, g, h, radius):
        # brute-force minimum of the quadratic model over the closed disk
        step, pred = rate_solver._trust_step(g, h, radius)

        def model_value(s):
            return g[0] * s[0] + g[1] * s[1] + 0.5 * (h[0] * s[0] ** 2 + 2 * h[1] * s[0] * s[1] + h[2] * s[1] ** 2)

        assert math.hypot(*step) <= radius * (1 + 1e-9)
        assert pred == pytest.approx(-model_value(step), rel=1e-12, abs=1e-15)
        grid = min(model_value((r * math.cos(t), r * math.sin(t)))
                   for r in np.linspace(0.0, radius, 101) for t in np.linspace(0.0, 2 * math.pi, 361))
        assert model_value(step) <= grid + 1e-12


# the start this model's lognormal spec used to give, (7.50, 15.01), lay
# beyond |w| <= 10
WARM_START_OUTSIDE_BOX = LsvModel(
    1.0, 0.05368691434674289, -0.7433499673795161,
    TanhLocalVol(0.20159463379008488, 0.12785022642174282, 0.08935012304448542),
    LognormalVolOfVol(2.8448851194129823))


class TestSupportedDomain:
    """No input in the supported domain raises from inside a solve, and
    each solve returns a finite, certified point."""

    def test_warm_start_outside_the_search_box(self):
        # the minimiser of the quadratic model lies beyond the first trust
        # radius here too, and the start is brought back onto it
        k = -0.3127577116185075
        start = rate_solver._start(WARM_START_OUTSIDE_BOX, _leg(WARM_START_OUTSIDE_BOX, "european", k))
        assert math.hypot(*start) == pytest.approx(rate_solver._RADIUS0, rel=1e-15)
        pt = european_rate(WARM_START_OUTSIDE_BOX, math.exp(k))
        assert pt.converged and not pt.boundary_hit
        assert pt.rate == pytest.approx(1.7018169433037211, rel=1e-9)

    @staticmethod
    @st.composite
    def local_vols(draw):
        kind = draw(st.sampled_from(("tanh", "constant", "taylor")))
        if kind == "tanh":
            f0 = draw(st.floats(0.2, 2.0))
            f1 = 0.95 * f0 * draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
            return TanhLocalVol(f0, f1, draw(st.floats(-0.5, 0.5)))
        if kind == "constant":
            return ConstantLocalVol()
        # eta' = eta1 + 2 eta2 k + 3 eta3 k^2 has no real root, so eta is
        # monotone on the whole [-50, 50] window, when eta1 eta3 >= 0 and
        # eta2^2 < 3 eta1 eta3
        eta1 = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.05, 1.0))
        eta3 = math.copysign(draw(st.floats(0.0, 1e-3)), eta1)
        eta2 = draw(st.floats(-0.99, 0.99)) * math.sqrt(3.0 * eta1 * eta3)
        return TaylorLocalVol(draw(st.floats(0.2, 2.0)), eta1, eta2, eta3)

    @staticmethod
    @st.composite
    def models(draw):
        drift = draw(st.one_of(
            st.just(ZeroDrift()),
            st.builds(ConstantDrift, st.floats(-1.0, 1.0)),
            st.builds(MeanRevertingDrift, st.floats(0.1, 5.0), st.floats(0.01, 0.5))))
        family = draw(st.sampled_from((LognormalVolOfVol, SquareRootVolOfVol)))
        return LsvModel(s0=1.0, v0=draw(st.floats(0.005, 0.5)), rho=draw(st.floats(-0.95, 0.95)),
                        local_vol=draw(TestSupportedDomain.local_vols()),
                        vol_of_vol=family(draw(st.floats(0.1, 3.0)), drift=drift))

    @settings(max_examples=3000, deadline=None, derandomize=True)
    @given(model=models(), k=st.floats(-0.5, 0.5))
    @example(model=WARM_START_OUTSIDE_BOX, k=-0.3127577116185075)
    # eta reaches zero at k = 3.3: the objective is undefined beyond it
    @example(model=LsvModel(1.0, 0.04, -0.5, TaylorLocalVol(1.0, -0.3), LognormalVolOfVol(1.0)), k=0.2)
    # nearly flat eta: the range of eta^2 is about 1e-12 wide in log terms
    @example(model=LsvModel(1.0, 0.5, 0.5, TanhLocalVol(1.5, 1.425e-12), LognormalVolOfVol(1.0)), k=0.5)
    # |f1|/f0 = 1.1e-3: a search over y stopped uncertified at 60 evaluations
    # with J = 0.1275; over the spot level it certifies J = 0.03497
    @example(model=LsvModel(1.0, 0.3691, 0.5918, TanhLocalVol(1.9268, -0.0020726, -0.48315),
                            SquareRootVolOfVol(1.832)), k=0.3354)
    # near the money the objective's rounding error exceeds J ~ 1e-14, and
    # the computed minimum came out at -3.2e-14
    @example(model=LsvModel(1.0, 0.5, 0.0, TanhLocalVol(1.0, 0.8312499999999999, 0.5), LognormalVolOfVol(0.25)),
             k=2.0**-23)
    @pytest.mark.slow
    def test_solves_never_raise(self, model, k):
        points = [vix_rate(model, vix_spot(model) * math.exp(k))]
        # a European strike beyond the zero of eta lies outside the domain
        if model.local_vol.eta(k) > 0.0:
            points.append(european_rate(model, model.s0 * math.exp(k)))
        for pt in points:
            # every solve in the domain is certified
            assert pt.converged, (model, k, pt)
            assert all(map(math.isfinite, (pt.rate, pt.minimizer_y, pt.minimizer_z))), pt
            assert pt.rate >= 0.0, pt

    # the sweep draws x0 from [-0.5, 0.5]; far from it tanh(x0) rounds to
    # +-1 (|x0| >= 20) and cosh(x0)^2 overflows (|x0| > 355)
    @pytest.mark.parametrize("vol,expansions", [
        (LognormalVolOfVol(1.0), (european_expansion_sabr_type, vix_expansion_sabr_type)),
        (SquareRootVolOfVol(0.5), (european_expansion_heston_type, vix_expansion_heston_type))],
        ids=["lognormal", "square_root"])
    @pytest.mark.parametrize("f1", [-0.5, 0.3])
    @pytest.mark.parametrize("x0", [-400.0, -30.0, -5.0, 5.0, 30.0, 400.0])
    def test_far_centred_tanh(self, x0, f1, vol, expansions):
        model = LsvModel(s0=1.0, v0=0.04, rho=-0.5, local_vol=TanhLocalVol(1.0, f1, x0), vol_of_vol=vol)
        for expansion in expansions:
            terms = expansion(model)
            assert all(math.isfinite(t) for t in (terms.atm, terms.skew, terms.convexity) if t is not None)
        for k in (-0.3, -0.05, 0.05, 0.3):
            for pt in (vix_rate(model, vix_spot(model) * math.exp(k)), european_rate(model, math.exp(k))):
                assert pt.converged and not pt.boundary_hit, (k, pt)
                assert all(map(math.isfinite, (pt.rate, pt.minimizer_y, pt.minimizer_z))), pt
                assert pt.rate > 0.0, pt
