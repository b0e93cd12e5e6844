import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from lsv_shortmat import model as model_mod
from lsv_shortmat import rate_solver
from lsv_shortmat.model import (
    ConstantLocalVol,
    LognormalVolOfVol,
    LsvModel,
    SquareRootVolOfVol,
    TanhLocalVol,
    TaylorLocalVol,
    eta_eval,
    vix_spot,
)
from lsv_shortmat.rate_solver import (
    european_rate,
    integral_IS,
    rate_to_impvol,
    sabr_rate_closed,
    stochvol_vix_rate,
    vix_rate,
    vol_integral_Q,
)

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
            oracle, _ = quad(lambda t: 1.0 / eta_eval(TANH, math.exp(t), 1.0), 0.0, math.log(z),
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
    def test_zero_at_start(self):
        assert vol_integral_Q(LognormalVolOfVol(2.0), 0.1, math.log(0.1)) == pytest.approx(0.0, abs=1e-15)

    def test_lognormal_closed_form(self):
        val = vol_integral_Q(LognormalVolOfVol(2.0), 0.1, math.log(0.4))
        assert val == pytest.approx(math.sqrt(0.4) - math.sqrt(0.1), rel=1e-12)
        assert val == pytest.approx(0.31622777, abs=1e-7)

    def test_square_root_closed_form(self):
        assert vol_integral_Q(SquareRootVolOfVol(1.0), 1.0, math.log(2.0)) == pytest.approx(1.0, rel=1e-12)

    def test_against_quadrature(self):
        # lognormal: sigma(x) = sigma; square-root: sigma(x) = sigma/sqrt(x)
        v0, y = 0.2, math.log(0.35)
        lo, _ = quad(lambda x: 1.0 / (math.sqrt(x) * 1.7), v0, math.exp(y))
        assert vol_integral_Q(LognormalVolOfVol(1.7), v0, y) == pytest.approx(lo, rel=1e-9)
        sr, _ = quad(lambda x: 1.0 / (math.sqrt(x) * (0.8 / math.sqrt(x))), v0, math.exp(y))
        assert vol_integral_Q(SquareRootVolOfVol(0.8), v0, y) == pytest.approx(sr, rel=1e-9)


class TestEuropeanRate:
    def test_atm_is_zero(self):
        pt = european_rate(table_model(-0.7), 1.0 + 1e-12)
        assert pt.rate == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5])
    @pytest.mark.parametrize("k", [-0.3, -0.1, 0.1, 0.3])
    def test_sabr_closed_form_equivalence(self, rho, k):
        model = sabr_model(rho)
        strike = math.exp(k)
        pt = european_rate(model, strike, method="2d")
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
        model = table_model(0.0)
        strike = math.exp(k)
        split = european_rate(model, strike, method="split")
        full = european_rate(model, strike, method="2d")
        assert abs(split.rate - full.rate) <= 1e-8

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

    def test_rho_one_rejected(self):
        with pytest.raises(ValueError):
            european_rate(table_model(1.0), 1.1)

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
        # K so large that K^2 e^{-y} can only fit with y pushed far: feasible
        # range shrinks and the solver reports the constraint
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


def _reference_integral_IS(spec, s0, z):
    return _reference_quadrature(lambda t: 1.0 / spec.eta(t), 0.0, math.log(z))


def _reference_eta_sq_inverse(spec, w, s0):
    def g(k):
        return float(spec.eta(k)) - math.sqrt(w)

    step, prev = 1.0, 0.0
    while True:
        for k in (step, -step):
            if (g(k) > 0.0) != (g(0.0) > 0.0):
                lo, hi = sorted((math.copysign(prev, k), k))
                return s0 * math.exp(brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16))
        prev, step = step, 2.0 * step


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
        monkeypatch.setattr(rate_solver, "integral_IS", _reference_integral_IS)
        monkeypatch.setattr(rate_solver, "eta_sq_inverse", _reference_eta_sq_inverse)
        slow = [solve(model, ref * math.exp(k)).rate for solve, ref in cases for k in self.LOG_MONEYNESS]
        assert np.max(np.abs(np.subtract(fast, slow))) <= 1e-12
