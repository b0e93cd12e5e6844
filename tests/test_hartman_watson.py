import math
from fractions import Fraction

import numpy as np
import pytest

from lsv_shortmat._roots import newton_bracketed
from lsv_shortmat.hartman_watson import (
    _F_SERIES_COEFFS,
    h_lognormal,
    hw_F,
    hw_F_derivatives,
    hw_F_series,
    rate_I,
    solve_f_branch,
)
from lsv_shortmat.heston_rate import _SINC_D1_SERIES, _horner

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


def _power_series_mul(a, b):
    n = len(a)
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b[:n - i]):
            out[i + j] += x * y
    return out


def _power_series_compose(f, g):
    """f(g(z)) truncated to len(f) terms; g has no constant term."""
    out = [Fraction(0)] * len(f)
    for c in reversed(f):
        out = _power_series_mul(out, g)
        out[0] += c
    return out


def _f_series_by_reversion(n):
    """The first n Taylor coefficients of F - pi^2/2 in L = log rho, exact.

    With t = x^2, S(t) = sinh(x)/x and C(t) = cosh(x), the branch equation
    is rho = 1/S, so L = -log S(t), and F = pi^2/2 + t/2 - C/S.  L(t) is
    reverted to t(L) by fixed-point iteration, one exact order per pass."""
    s = [Fraction(1, math.factorial(2 * k + 1)) for k in range(n)]
    c = [Fraction(1, math.factorial(2 * k)) for k in range(n)]
    # -log(1 + u) = sum_k (-1)^k u^k / k, with u = S - 1
    el = _power_series_compose([Fraction(0)] + [Fraction((-1) ** k, k) for k in range(1, n)], [Fraction(0)] + s[1:])
    inv_s = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for k in range(1, n):
        inv_s[k] = -sum(s[j] * inv_s[k - j] for j in range(1, k + 1))
    g = [-x for x in _power_series_mul(c, inv_s)]
    g[1] += Fraction(1, 2)
    # t = (L - sum_{k >= 2} el_k t^k) / el_1
    t = [Fraction(0)] * n
    for _ in range(n):
        t = [-x / el[1] for x in _power_series_compose([Fraction(0), Fraction(0)] + el[2:], t)]
        t[1] += 1 / el[1]
    return _power_series_compose(g, t)


F_SERIES = [Fraction(-1), Fraction(-1), Fraction(1), Fraction(2, 15), Fraction(19, 525), Fraction(22, 2625),
            Fraction(4742, 3031875), Fraction(43636, 197071875), Fraction(146287, 6897515625),
            Fraction(68146, 57984609375)]


class TestSeries:
    def test_coefficients_by_exact_reversion(self):
        assert _f_series_by_reversion(10) == F_SERIES
        assert _F_SERIES_COEFFS == (PI2_HALF + float(F_SERIES[0]), *map(float, F_SERIES[1:]))

    def test_series_values(self):
        # pi^2/2 plus the ten exact terms at L = +-1
        for el in (1, -1):
            exact = PI2_HALF + float(sum(c * el**k for k, c in enumerate(F_SERIES)))
            assert hw_F_series(math.exp(el)) == pytest.approx(exact, abs=1e-12)
        assert hw_F_series(math.e) == pytest.approx(4.1145148167457055, abs=1e-10)
        assert hw_F_series(1.0 / math.e) == pytest.approx(5.8306410513256495, abs=1e-10)

    def test_series_vs_branch_near_one(self):
        # ten terms: the remainder is at most about 1.2e-12 out at |log rho| = 0.3
        for el in np.linspace(-0.3, 0.3, 601):
            rho = math.exp(el)
            assert abs(hw_F_series(rho) - hw_F(rho)) < 2e-12, f"log rho = {el}"

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
        # for rho << 1 the root is near l + log l, l = log(2/rho), where
        # the small-x start would leave findroot short of it
        l = mp.log(2 / rho)
        x = mp.findroot(lambda t: rho * mp.sinh(t) - t,
                        l + mp.log(l) if rho < 0.1 else mp.sqrt(6 * (1 - rho) / rho))
        return x**2 / 2 - rho * mp.cosh(x) + mp.pi**2 / 2
    d = mp.findroot(lambda t: rho * mp.sin(t) - t, min(mp.sqrt(6 * (rho - 1) / rho), 3))
    y = mp.pi - d
    return -(y**2) / 2 + rho * mp.cos(y) + mp.pi * y


class TestFDerivatives:
    @pytest.mark.parametrize("log_rho", [s * m for m in (1e-8, 1e-5, 1e-3, 0.3, 2.0, 5.0, 8.0, 10.0, 15.0)
                                         for s in (1, -1)])
    def test_against_mpmath(self, log_rho):
        # negative log rho is the cosh branch, positive the cos branch;
        # mpmath differentiates F itself, not the envelope formulas.  The
        # rate solver's box |log u|, |w| <= 10 reaches |log rho| = 15.
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

    @pytest.mark.parametrize("rho", [1e-161, 1e-165, 1e-300])
    def test_underflowing_curvature_is_inf(self, rho):
        # F'' = -1/(2 rho^3 g') > 0, and rho^2 (rho g') underflows to -0.0
        f, f1, f2 = hw_F_derivatives(rho)
        assert (f, f1) == (hw_F(rho), -math.cosh(solve_f_branch(rho).root))
        assert f2 == math.inf

    def test_curvature_unchanged_above_the_underflow(self):
        assert hw_F_derivatives(1e-150) == reference_hw_F_derivatives(1e-150)
        assert hw_F_derivatives(1e-150)[2] == pytest.approx(3.53e302, rel=1e-3)


# The two-branch solve that one stationary solve replaced, kept as a
# reference copy: rho sinh(x1) = x1 with its bracket found by doubling for
# rho <= 1, and y1 + rho sin(y1) = pi through d = pi - y1 for rho > 1.


def reference_solve_f_branch(rho):
    """(branch, root, F) from the branch equation selected by rho."""
    if rho <= 1.0:
        def g(x):
            return rho * math.sinh(x) - x

        def gp(x):
            return rho * math.cosh(x) - 1.0

        guess = math.sqrt(6.0 * (1.0 - rho) / rho)
        hi = 1.0
        while g(hi) < 0.0:
            if hi >= 705.0:
                raise ArithmeticError("cosh-branch root escaped the search range")
            hi = min(2.0 * hi, 705.0)
        x1 = newton_bracketed(g, gp, guess, min(1e-12, 0.5 * guess), hi)
        return "cosh", x1, 0.5 * x1 * x1 - rho * math.cosh(x1) + PI2_HALF

    def g(d):
        return rho * math.sin(d) - d

    def gp(d):
        return rho * math.cos(d) - 1.0

    guess = math.sqrt(min(6.0 * (rho - 1.0) / rho, math.pi**2 * 0.9))
    lo = min(1e-12, 0.5 * guess) if guess > 0.0 else 1e-12
    y1 = math.pi - newton_bracketed(g, gp, guess, lo, math.pi)
    return "cos", y1, -0.5 * y1 * y1 + rho * math.cos(y1) + math.pi * y1


def reference_hw_F_derivatives(rho):
    branch, root, value = reference_solve_f_branch(rho)
    if branch == "cosh":
        u, f = -root * root, math.cosh(root)
    else:
        d = math.pi - root
        u, f = d * d, math.cos(d)
    rho_g1 = rho * _horner(_SINC_D1_SERIES, -u) if abs(u) <= 1.0 else (rho * f - 1.0) / (2.0 * u)
    return value, -f, -0.5 / (rho * rho * rho_g1)


def _assert_matches_reference(rho):
    branch, root, _ = reference_solve_f_branch(rho)
    sol = solve_f_branch(rho)
    assert (sol.branch, sol.rho) == (branch, rho)
    assert abs(sol.root - root) <= 1e-14 * root, (rho, sol.root, root)
    ref = reference_hw_F_derivatives(rho)
    got = hw_F_derivatives(rho)
    assert got[0] == sol.f_value == hw_F(rho)
    for name, g, r in zip(("F", "F'", "F''"), got, ref):
        assert abs(g - r) <= 1e-14 * abs(r), (name, rho, g, r)


class TestTwoBranchReference:
    def test_seeded_rho(self):
        # both branches over the rate solver's |log rho| <= 15, and decades
        # of |log rho| down to 1e-12 on either side of rho = 1
        rng = np.random.default_rng(22)
        log_rho = np.concatenate([rng.uniform(-15.0, 15.0, 6000),
                                  np.outer([1.0, -1.0], 10.0 ** rng.uniform(-12.0, 0.0, 2000)).ravel()])
        for el in log_rho:
            _assert_matches_reference(math.exp(el))

    @pytest.mark.parametrize("rho", [1e-150, 1e-250, 1e-303, 1.0])
    def test_domain_ends(self, rho):
        # F'' is not compared: it overflows to inf below about 1e-152
        sol = solve_f_branch(rho)
        branch, root, value = reference_solve_f_branch(rho)
        assert sol.branch == branch
        assert abs(sol.root - root) <= 1e-14 * root
        assert abs(sol.f_value - value) <= 1e-14 * abs(value)

    def test_past_the_sinh_cap(self):
        # the root lies past 705, where sinh overflows: the bracket at 705
        # does not hold it (the two-branch solve raised ArithmeticError)
        with pytest.raises(ArithmeticError):
            reference_solve_f_branch(1e-305)
        with pytest.raises(ValueError, match="not bracketed"):
            hw_F(1e-305)
