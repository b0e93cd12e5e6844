import math

import numpy as np
import pytest

from lsv_shortmat.hartman_watson import (
    h_lognormal,
    hw_F,
    hw_F_derivatives,
    hw_F_series,
    rate_I,
    solve_f_branch,
)

PI2_HALF = math.pi**2 / 2.0


class TestBranchSolutions:
    @pytest.mark.parametrize("rho", [0.05, 0.3, 0.7, 0.95, 0.999, 1.0 - 1e-8])
    def test_cosh_branch_equation(self, rho):
        sol = solve_f_branch(rho)
        assert sol.branch == "cosh"
        assert rho * math.sinh(sol.root) / sol.root == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rho", [1.0 + 1e-8, 1.001, 1.2, 2.0, math.e, 10.0, 100.0])
    def test_cos_branch_equation(self, rho):
        sol = solve_f_branch(rho)
        assert sol.branch == "cos"
        assert 0.0 < sol.root <= math.pi
        assert sol.root + rho * math.sin(sol.root) == pytest.approx(math.pi, abs=1e-12)

    def test_rho_one_exact(self):
        assert hw_F(1.0) == pytest.approx(PI2_HALF - 1.0, abs=1e-15)

    def test_branch_continuity(self):
        below = hw_F(1.0 - 1e-8)
        above = hw_F(1.0 + 1e-8)
        assert abs(below - above) < 1e-6

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            hw_F(0.0)
        with pytest.raises(ValueError):
            hw_F(-1.0)


class TestSeries:
    def test_series_values(self):
        # pi^2/2 - 1 - L + L^2 + (2/15) L^3 at L = +-1
        assert hw_F_series(math.e) == pytest.approx(PI2_HALF - 1.0 + 2.0 / 15.0, abs=1e-12)
        assert hw_F_series(1.0 / math.e) == pytest.approx(PI2_HALF + 1.0 - 2.0 / 15.0, abs=1e-12)
        assert hw_F_series(math.e) == pytest.approx(4.068135533878012, abs=1e-10)
        assert hw_F_series(1.0 / math.e) == pytest.approx(5.801468867211345, abs=1e-10)

    def test_series_vs_branch_near_one(self):
        # the tabulated truncation stops at the cubic; the next coefficient
        # is about 0.034, so agreement is quartic-limited: ~1e-6 inside
        # |log rho| <= 0.07 and ~3e-4 out at 0.3
        for el in np.linspace(-0.07, 0.07, 15):
            rho = math.exp(el)
            assert abs(hw_F_series(rho) - hw_F(rho)) < 1e-6, f"log rho = {el}"
        for el in np.linspace(-0.3, 0.3, 13):
            rho = math.exp(el)
            err = abs(hw_F_series(rho) - hw_F(rho))
            assert err < 0.04 * el**4 + 1e-9, f"log rho = {el}"

    def test_series_truncation_is_quartic(self):
        # the remainder shrinks like the fourth power of log rho
        els = np.array([0.05, 0.1, 0.2, 0.3])
        errs = np.array([abs(hw_F_series(math.exp(el)) - hw_F(math.exp(el))) for el in els])
        slope = np.polyfit(np.log(els), np.log(errs), 1)[0]
        assert 3.5 < slope < 4.5

    def test_independent_root_oracle(self):
        # high-precision mpmath root solve, independent of the scipy/Newton path
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for rho in (math.e, 2.0):
            y1 = mp.findroot(lambda y: y + rho * mp.sin(y) - mp.pi, mp.mpf("0.9"))
            expected = float(-mp.mpf("0.5") * y1**2 + rho * mp.cos(y1) + mp.pi * y1)
            assert hw_F(rho) == pytest.approx(expected, abs=1e-12)
        for rho in (1.0 / math.e, 0.5):
            x1 = mp.findroot(lambda x: rho * mp.sinh(x) - x, mp.mpf("2.5"))
            expected = float(mp.mpf("0.5") * x1**2 - rho * mp.cosh(x1) + mp.pi**2 / 2)
            assert hw_F(rho) == pytest.approx(expected, abs=1e-12)


class TestRateI:
    def test_zero_at_center(self):
        assert abs(rate_I(1.0, 1.0)) < 1e-12

    def test_nonnegative_on_box(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.2, 5.0, size=(10_000, 2))
        vals = np.array([rate_I(u, v) for u, v in pts])
        assert np.all(vals >= -1e-12)
        # zero only at (1, 1): everything a bit away from it is strictly positive
        away = np.abs(np.log(pts)).max(axis=1) > 0.02
        assert vals[away].min() > 1e-5

    def test_quadratic_form_near_center(self):
        # I(e^a, e^b) = 12 a^2 - 24 a b + 16 b^2 + cubic remainder
        rng = np.random.default_rng(11)
        worst = 0.0
        for a, b in rng.uniform(-0.1, 0.1, size=(200, 2)):
            quad = 12 * a * a - 24 * a * b + 16 * b * b
            rem = abs(rate_I(math.exp(a), math.exp(b)) - quad)
            scale = (abs(a) + abs(b)) ** 3
            if scale > 0:
                worst = max(worst, rem / scale)
        assert worst < 60.0  # empirical constant, comfortably finite

    def test_small_perturbations(self):
        # leading order 12 eps^2 in u, 16 eps^2 in v
        assert rate_I(math.exp(0.01), 1.0) == pytest.approx(12e-4, rel=0.05)
        assert rate_I(1.0, math.exp(0.01)) == pytest.approx(16e-4, rel=0.05)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            rate_I(0.0, 1.0)
        with pytest.raises(ValueError):
            rate_I(1.0, -2.0)


class TestHLognormal:
    def test_zero_on_flat_path(self):
        v0 = 0.1
        assert h_lognormal(math.log(v0), v0, v0, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_delegates_to_rate_I(self):
        val = h_lognormal(0.0, math.exp(0.01), 1.0, 2.0)
        assert val == pytest.approx(rate_I(math.exp(0.01), 1.0) / 8.0, rel=1e-12)

    def test_sigma_scaling(self):
        a = h_lognormal(-2.0, 0.12, 0.1, 1.3)
        b = h_lognormal(-2.0, 0.12, 0.1, 2.6)
        assert a == pytest.approx(4.0 * b, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            h_lognormal(0.0, -1.0, 1.0, 1.0)


def _mp_hw_F(mp, rho):
    """F(rho) from the branch equations solved by mpmath at working precision."""
    rho = mp.mpf(rho)
    if rho < 1:
        x = mp.findroot(lambda t: rho * mp.sinh(t) - t, mp.sqrt(6 * (1 - rho) / rho))
        return x**2 / 2 - rho * mp.cosh(x) + mp.pi**2 / 2
    d = mp.findroot(lambda t: rho * mp.sin(t) - t, min(mp.sqrt(6 * (rho - 1) / rho), 3))
    y = mp.pi - d
    return -(y**2) / 2 + rho * mp.cos(y) + mp.pi * y


class TestFDerivatives:
    @pytest.mark.parametrize("log_rho", [s * m for m in (1e-8, 1e-5, 1e-3, 0.3, 2.0) for s in (1, -1)])
    def test_against_mpmath(self, log_rho):
        # negative log rho is the cosh branch, positive the cos branch;
        # mpmath differentiates F itself, not the envelope formulas
        mp = pytest.importorskip("mpmath")
        rho = math.exp(log_rho)
        with mp.workdps(50):
            ref = (_mp_hw_F(mp, rho), mp.diff(lambda r: _mp_hw_F(mp, r), rho),
                   mp.diff(lambda r: _mp_hw_F(mp, r), rho, 2))
            got = hw_F_derivatives(rho)
            for name, g, r in zip(("F", "F'", "F''"), got, ref):
                assert abs(g - r) <= 1e-13 * abs(r), (name, log_rho, g, float(r))

    def test_at_one(self):
        f, f1, f2 = hw_F_derivatives(1.0)
        assert f == hw_F(1.0)
        assert f1 == -1.0
        assert f2 == pytest.approx(3.0, rel=1e-15)
