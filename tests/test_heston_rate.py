import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize, minimize_scalar

from lsv_shortmat import cli, heston_rate
from lsv_shortmat.heston_rate import (
    _profile_terms,
    h_heston,
    legendre_point,
    marginal_J1,
    marginal_J2,
    rate_IH_numeric,
    rate_IH_series,
)
from lsv_shortmat.model import SquareRootVolOfVol, load_model, vix_spot
from lsv_shortmat.rate_solver import european_rate, vix_rate
from oracles import boundary_theta_c, cumulant, legendre_sup_mp

MODELS_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "models"
GRID_SIGMAS = (0.5, 1.0, 2.0)


class TestCumulant:
    def test_origin(self):
        assert cumulant(0.0, 0.0, 1.0).value == 0.0

    @pytest.mark.parametrize("sigma,phi", [(1.0, 0.5), (2.0, 0.3), (0.5, -1.0)])
    def test_theta_zero_limit(self, sigma, phi):
        direct = cumulant(0.0, phi, sigma).value
        assert direct == pytest.approx(phi / (1 - sigma**2 * phi / 2), rel=1e-12)
        # continuous across the branch switch
        eps = 1e-9
        assert cumulant(eps, phi, sigma).value == pytest.approx(direct, abs=1e-6)
        assert cumulant(-eps, phi, sigma).value == pytest.approx(direct, abs=1e-6)

    def test_quadratic_expansion(self):
        # Lambda = theta + phi + sigma^2 (theta^2/6 + theta phi/2 + phi^2/2) + cubic
        theta = phi = 0.01
        sigma = 1.0
        lam = cumulant(theta, phi, sigma).value
        quad = sigma**2 * (theta**2 / 6 + theta * phi / 2 + phi**2 / 2)
        assert abs(lam - (theta + phi) - quad) < 1e-5

    def test_domain_flags(self):
        sigma = 1.0
        # phi = 0: boundary at theta = pi^2/2
        inside = cumulant(4.9, 0.0, sigma)
        outside = cumulant(5.0, 0.0, sigma)
        assert inside.in_domain and math.isfinite(inside.value)
        assert not outside.in_domain and outside.value == math.inf
        # large positive phi is out of domain even at theta = 0
        assert not cumulant(0.0, 3.0, sigma).in_domain
        # theta < 0 with phi <= 0 is always in domain
        assert cumulant(-50.0, -10.0, sigma).in_domain

    def test_negative_phi_past_tan_pole(self):
        # for phi < 0 the domain extends beyond theta = pi^2/(2 sigma^2)
        sigma = 1.0
        theta_c = boundary_theta_c(-1.0, sigma)
        assert theta_c > math.pi**2 / 2
        mid = 0.5 * (math.pi**2 / 2 + theta_c)
        assert cumulant(mid, -1.0, sigma).in_domain


class TestBoundary:
    def test_phi_zero_closed_form(self):
        for sigma in (0.5, 1.0, 2.0):
            assert boundary_theta_c(0.0, sigma) == pytest.approx(math.pi**2 / (2 * sigma**2), rel=1e-10)

    def test_negative_phi_exceeds_pole(self):
        assert boundary_theta_c(-0.5, 1.0) > math.pi**2 / 2
        assert boundary_theta_c(-2.0, 1.0) > boundary_theta_c(-0.5, 1.0)

    def test_against_scan_oracle(self):
        # independent coarse scan for the first denominator sign change
        sigma, phi = 1.3, 0.4
        thetas = np.linspace(1e-6, 2 * math.pi**2 / sigma**2, 200_000)
        inside = np.array([cumulant(t, phi, sigma).in_domain for t in thetas])
        first_out = thetas[np.argmin(inside)]
        assert boundary_theta_c(phi, sigma) == pytest.approx(first_out, abs=1e-3)

    def test_saturated_phi(self):
        assert boundary_theta_c(2.0, 1.0) == 0.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(phi=st.floats(-50.0, 10.0), sigma=st.sampled_from((0.2, 0.5, 1.0, 2.0, 5.0)))
    def test_against_brentq(self, phi, sigma):
        theta_c = boundary_theta_c(phi, sigma)
        if sigma * sigma * phi >= 2.0:
            assert theta_c == 0.0
            return

        def g(c):
            return (2.0 * c / sigma) * math.cos(c) - sigma * phi * math.sin(c)

        c = brentq(g, 1e-12, math.pi * (1.0 - 1e-14), xtol=1e-300, rtol=8.9e-16)
        # the rounding error of g over its slope bounds how far the root of
        # the float equation can move; it exceeds 1e-14 relative only as
        # sigma^2 phi -> 2, where the root tends to 0
        slope = (2.0 / sigma) * (math.cos(c) - c * math.sin(c)) - sigma * phi * math.cos(c)
        noise = 4.0 * np.finfo(float).eps * (abs(2.0 * c / sigma * math.cos(c)) + abs(sigma * phi * math.sin(c)))
        rel = 1e-14 + 2.0 * noise / (abs(slope) * c)
        assert theta_c == pytest.approx(2.0 * c * c / (sigma * sigma), rel=rel)


class TestLegendreTransform:
    def test_zero_at_center(self):
        assert rate_IH_numeric(1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("ex,ey", [(0.1, 0.0), (-0.1, 0.0), (0.0, 0.1), (0.0, -0.1), (0.1, 0.1), (-0.05, 0.08)])
    def test_matches_series(self, ex, ey):
        num = rate_IH_numeric(math.exp(ex), math.exp(ey), 1.0)
        ser = rate_IH_series(ex, ey, 1.0)
        assert abs(num - ser) <= 2e-4

    def test_sigma_scaling(self):
        a = rate_IH_numeric(math.exp(0.15), math.exp(-0.1), 1.0)
        b = rate_IH_numeric(math.exp(0.15), math.exp(-0.1), 2.0)
        assert a == pytest.approx(4.0 * b, rel=1e-7)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for ex, ey in rng.uniform(-0.3, 0.3, size=(40, 2)):
            val = rate_IH_numeric(math.exp(ex), math.exp(ey), 1.0)
            assert val >= 0.0
            if max(abs(ex), abs(ey)) > 0.05:
                assert val > 1e-8

    def test_quintic_remainder(self):
        rng = np.random.default_rng(5)
        for ex, ey in rng.uniform(-0.2, 0.2, size=(40, 2)):
            num = rate_IH_numeric(math.exp(ex), math.exp(ey), 1.0)
            ser = rate_IH_series(ex, ey, 1.0)
            assert abs(num - ser) <= 5.0 * (abs(ex) + abs(ey)) ** 5 + 1e-9

    def test_duality_at_maximizer(self):
        x, y, sigma = math.exp(0.1), math.exp(-0.05), 1.0
        pt = legendre_point(0.1, -0.05, sigma)
        assert pt.converged
        h = 1e-5
        d_theta = (cumulant(pt.theta + h, pt.phi, sigma).value - cumulant(pt.theta - h, pt.phi, sigma).value) / (2 * h)
        d_phi = (cumulant(pt.theta, pt.phi + h, sigma).value - cumulant(pt.theta, pt.phi - h, sigma).value) / (2 * h)
        assert d_theta == pytest.approx(x, rel=1e-4)
        assert d_phi == pytest.approx(y, rel=1e-4)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            rate_IH_numeric(-1.0, 1.0, 1.0)

    # legendre_point takes (log x, log y)
    @pytest.mark.parametrize("log_x,log_y,sigma", [(0.0, -math.inf, 1.0), (math.inf, 0.0, 1.0),
                                                   (0.0, math.nan, 1.0), (710.0, 0.0, 1.0), (0.0, 0.0, 0.0)])
    def test_non_finite_or_degenerate_inputs(self, log_x, log_y, sigma):
        with pytest.raises(ValueError):
            legendre_point(log_x, log_y, sigma)


class TestSeriesValues:
    def test_series_probe_points(self):
        # direct sums of the series coefficients at the probe points
        assert rate_IH_series(0.0, 0.0, 1.0) == 0.0
        expected_x = 6 * 0.01 + 2.4 * 0.001 + (271.0 / 350.0) * 1e-4
        assert rate_IH_series(0.1, 0.0, 1.0) == pytest.approx(expected_x, abs=1e-12)
        assert expected_x == pytest.approx(0.0624774285714, abs=1e-10)
        expected_y = 2 * 0.01 + 1.2 * 0.001 + (473.0 / 1050.0) * 1e-4
        assert rate_IH_series(0.0, 0.1, 1.0) == pytest.approx(expected_y, abs=1e-12)
        assert expected_y == pytest.approx(0.0212450476190, abs=1e-10)
        expected_xy = 2 * 0.01 + 0.8 * 0.001 + (263.0 / 1050.0) * 1e-4
        assert rate_IH_series(0.1, 0.1, 1.0) == pytest.approx(expected_xy, abs=1e-12)
        assert expected_xy == pytest.approx(0.0208250476190, abs=1e-10)


class TestMarginals:
    def test_zero(self):
        assert marginal_J1(0.0, 1.0) == 0.0
        assert marginal_J2(0.0, 1.0) == 0.0

    def test_J2_matches_exact_european_form(self):
        # J2 is the Taylor expansion of 2 (e^(eps/2) - 1)^2 / sigma^2
        for eps in (0.05, 0.1, 0.2, -0.1, -0.2):
            exact = 2.0 * (math.exp(eps / 2.0) - 1.0) ** 2
            assert abs(marginal_J2(eps, 1.0) - exact) <= 5e-5, eps

    def test_J2_example_value(self):
        val = marginal_J2(0.2, 1.0)
        assert val == pytest.approx(0.5 * 0.04 + 0.25 * 0.008 + (7.0 / 96.0) * 0.0016, abs=1e-14)
        assert abs(val - 2.0 * (math.exp(0.1) - 1.0) ** 2) <= 5e-5

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, -0.05, -0.1, -0.2])
    def test_J1_matches_numeric_inf(self, eps):
        x = math.exp(eps)
        res = minimize_scalar(
            lambda ey: rate_IH_numeric(x, math.exp(ey), 1.0),
            bracket=(-0.4, 0.4), method="brent", options=dict(xtol=1e-9),
        )
        assert abs(res.fun - marginal_J1(eps, 1.0)) <= 2e-4

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, -0.05, -0.1, -0.2])
    def test_J2_exact_matches_numeric_inf(self, eps):
        y = math.exp(eps)
        res = minimize_scalar(
            lambda ex: rate_IH_numeric(math.exp(ex), y, 1.0),
            bracket=(-0.4, 0.4), method="brent", options=dict(xtol=1e-9),
        )
        exact = 2.0 * (math.exp(eps / 2.0) - 1.0) ** 2
        assert abs(res.fun - exact) <= 2e-4


class TestHHeston:
    def test_zero_on_flat_path(self):
        v0 = 0.04
        assert h_heston(math.log(v0), v0, v0, 0.5) == pytest.approx(0.0, abs=1e-10)

    def test_series_window_value(self):
        # v0 = 1, sigma = 1, z = e^0.1, y = 0 sits inside the series window
        val = h_heston(0.0, math.exp(0.1), 1.0, 1.0)
        assert val == pytest.approx(0.0624774285714, abs=2e-4)

    def test_homogeneity(self):
        y, z, v0, sigma = -2.2, 0.13, 0.1, 0.7
        c = 3.7
        a = h_heston(y + math.log(c), c * z, c * v0, sigma)
        assert a == pytest.approx(c * h_heston(y, z, v0, sigma), rel=1e-10)

    def test_series_numeric_seam(self):
        # H is continuous across |log| = 0.25, where a switch to the quartic
        # series used to make it jump by up to a relative 1.1e-3: the step
        # over a 2e-9 gap is its slope times the gap
        v0, delta = 1.0, 1e-9
        for sign_x, sign_y, sigma in [(1, 1, 1.0), (1, -1, 0.5), (-1, 1, 1.0), (-1, -1, 2.0)]:
            values = [h_heston(sign_y * e, math.exp(sign_x * e), v0, sigma)
                      for e in (0.25 - delta, 0.25 + delta)]
            assert abs(values[1] - values[0]) <= 1e-7 * values[0], (sign_x, sign_y, sigma)

    def test_invalid(self):
        with pytest.raises(ValueError):
            h_heston(0.0, -1.0, 1.0, 1.0)


def _mp_cumulant(mp, theta, phi, sigma):
    """Closed-form Lambda in mpmath; complex sqrt covers theta < 0."""
    s = mp.sqrt(mp.mpc(2 * theta))
    c = sigma * s / 2
    return mp.re((s / sigma) * (s * mp.sin(c) + sigma * phi * mp.cos(c))
                 / (s * mp.cos(c) - sigma * phi * mp.sin(c)))


def _edge_phi(theta, sigma, rel):
    """phi at relative distance ``rel`` inside the D = 0 edge at theta."""
    a = 0.5 * sigma * sigma
    u = a * theta
    if u > 0:
        f, g = math.cos(math.sqrt(u)), math.sin(math.sqrt(u)) / math.sqrt(u)
    else:
        f, g = math.cosh(math.sqrt(-u)), math.sinh(math.sqrt(-u)) / math.sqrt(-u)
    edge = f / (a * g)
    return edge * (1.0 - rel) if edge > 0 else edge * (1.0 + rel)


def _oracle_points():
    pts = []
    for sigma in GRID_SIGMAS:
        a = 0.5 * sigma * sigma
        pts += [(0.8 / a, 0.3, sigma), (-3.0 / a, 0.4, sigma), (-60.0 / a, -2.0, sigma)]
        for t in (1e-12, 1e-8, 1e-4):
            pts += [(t, 0.2, sigma), (-t, -0.3, sigma)]
        # on 2 theta + sigma^2 phi^2 = 0, where psi' vanishes at time 0
        for t in (-0.5, -4.0):
            pts += [(t, math.sqrt(-2.0 * t) / sigma, sigma), (t, -math.sqrt(-2.0 * t) / sigma, sigma)]
        # within 1e-6 of the D = 0 edge, and of c = pi with phi far below zero
        pts += [(t / a, _edge_phi(t / a, sigma, 1e-6), sigma) for t in (-2.0, 0.5, 3.0)]
        pts += [(math.pi**2 / (2.0 * a) * (1.0 - 1e-6), -1e3, sigma)]
    return pts


class TestProfileTermsOracle:
    """k(u) = sqrt(u) cot(sqrt u), m(u) = sqrt(u)/sin(sqrt u) and their first
    two derivatives against mpmath differentiation at 50 digits."""

    @pytest.mark.parametrize("u", [
        1e-12, -1e-12, 1e-8, -1e-8, 1e-4, -1e-4,          # the theta = 0 seam
        0.5, -0.5, 0.999, 1.001, -0.999, -1.001,          # series / closed-form switch
        3.0, -3.0, 9.0, -40.0, -2500.0,
        math.pi**2 * (1.0 - 1e-6),                        # c within 1e-6 of pi
    ])
    def test_against_mpmath(self, u):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            def k(v):
                s = mp.sqrt(mp.mpc(v))
                return mp.re(s * mp.cot(s))

            def m(v):
                s = mp.sqrt(mp.mpc(v))
                return mp.re(s / mp.sin(s))

            ref = [k(u), mp.diff(k, u), mp.diff(k, u, 2), m(u), mp.diff(m, u), mp.diff(m, u, 2)]
            got = _profile_terms(u)
            for name, g, r in zip(("k", "k'", "k''", "m", "m'", "m''"), got, ref):
                assert abs(g - r) <= 1e-9 * abs(r), (name, u, g, float(r))

    @pytest.mark.parametrize("u", [
        1e-12, -1e-12, 1e-8, -1e-8, 1e-4, -1e-4, 0.5, -0.5, 0.999, 1.001, -0.999, -1.001,
        3.0, -3.0, 9.0, -40.0, -2500.0,
    ])
    def test_deviation_parts_against_mpmath(self, u):
        # k - 1 + u/3 and m - 1 - u/6, O(u^2), with their first derivatives,
        # to their own relative precision on both sides of the series switch
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            def k_dev(v):
                s = mp.sqrt(mp.mpc(v))
                return mp.re(s * mp.cot(s)) - 1 + mp.mpf(v) / 3

            def m_dev(v):
                s = mp.sqrt(mp.mpc(v))
                return mp.re(s / mp.sin(s)) - 1 - mp.mpf(v) / 6

            ref = [k_dev(u), mp.diff(k_dev, u), m_dev(u), mp.diff(m_dev, u)]
            got = _profile_terms(u)[6:]
            assert len(got) == 4
            for name, g, r in zip(("k~", "k~'", "m~", "m~'"), got, ref):
                assert abs(g - r) <= 1e-12 * abs(r), (name, u, g, float(r))

    def test_domain_edge(self):
        assert _profile_terms(math.pi**2) is None
        assert _profile_terms(math.pi**2 * (1.0 - 1e-12)) is not None


class TestLegendreOracle:
    """Inverse oracle: at a chosen (theta0, phi0), mpmath differentiates the
    closed-form Lambda to get (x, y) = grad Lambda; the transform must return
    theta0, phi0 and theta0 x + phi0 y - Lambda."""

    @pytest.mark.parametrize("theta0,phi0,sigma", _oracle_points())
    def test_recovers_maximiser(self, theta0, phi0, sigma):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            x = mp.diff(lambda t: _mp_cumulant(mp, t, phi0, sigma), theta0)
            y = mp.diff(lambda p: _mp_cumulant(mp, theta0, p, sigma), phi0)
            value = theta0 * x + phi0 * y - _mp_cumulant(mp, theta0, phi0, sigma)
            pt = legendre_point(float(mp.log(x)), float(mp.log(y)), sigma)
            assert pt.converged
            assert abs(pt.theta - theta0) <= 1e-9 * max(1.0, abs(theta0))
            assert abs(pt.phi - phi0) <= 1e-9 * max(1.0, abs(phi0))
            assert abs(pt.value - value) <= 1e-9 * abs(value)


class TestFlatPathAccuracy:
    """legendre_point sums the profile G in deviation form about the flat
    path (log x, log y) = 0, so I_H ~ p^2 and its rounding error keep their
    relative precision as p -> 0: against the sup of G in its O(1) terms at
    50 digits, for |log x| and |log y| from 1e-8 to 0.3."""

    MAGNITUDES = (1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.3)

    @pytest.mark.parametrize("sigma", GRID_SIGMAS)
    def test_against_mpmath_sup(self, sigma):
        pytest.importorskip("mpmath")
        for mx in self.MAGNITUDES:
            for my in self.MAGNITUDES:
                for log_x, log_y in ((mx, my), (mx, -my), (-mx, my), (-mx, -my)):
                    want, theta = legendre_sup_mp(log_x, log_y, sigma)
                    pt = legendre_point(log_x, log_y, sigma)
                    assert pt.converged, (log_x, log_y, sigma)
                    assert abs(pt.value - want) <= 1e-12 * want, (log_x, log_y, sigma, pt.value, want)
                    assert pt.noise <= 1e-12 * want, (log_x, log_y, sigma, pt.noise, want)
                    assert abs(pt.theta - theta) <= 1e-8 * abs(theta), (log_x, log_y, sigma)

    def test_quartic_series_near_the_flat_path(self):
        # rate_IH_series is off by O(p^5): relative O(p^3) of I_H
        for log_x, log_y in ((1e-4, -3e-5), (-2e-3, 1e-3), (5e-3, 5e-3)):
            want = rate_IH_series(log_x, log_y, 1.0)
            assert legendre_point(log_x, log_y, 1.0).value == pytest.approx(want, rel=50.0 * max(
                abs(log_x), abs(log_y)) ** 3)


# ---------------------------------------------------------------------------
# the finite-difference Newton path the profile solve replaced, kept here as
# the oracle
# ---------------------------------------------------------------------------


def _replaced_fd_grad_hess(f, p, fp, h):
    g = np.empty(2)
    H = np.empty((2, 2))
    vals = {(0, 0): fp}
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if (di, dj) != (0, 0):
                v = f(p + h * np.array([di, dj]))
                if not math.isfinite(v):
                    return None, None
                vals[(di, dj)] = v
    g[0] = (vals[(1, 0)] - vals[(-1, 0)]) / (2 * h)
    g[1] = (vals[(0, 1)] - vals[(0, -1)]) / (2 * h)
    H[0, 0] = (vals[(1, 0)] - 2 * fp + vals[(-1, 0)]) / (h * h)
    H[1, 1] = (vals[(0, 1)] - 2 * fp + vals[(0, -1)]) / (h * h)
    H[0, 1] = H[1, 0] = (vals[(1, 1)] - vals[(1, -1)] - vals[(-1, 1)] + vals[(-1, -1)]) / (4 * h * h)
    return g, H


def _replaced_legendre_point(log_x, log_y, sigma):
    """Newton on a 9-point stencil of cumulant values, Nelder-Mead fallback,
    at x = e^{log_x}, y = e^{log_y}."""
    x, y = math.exp(log_x), math.exp(log_y)

    def f(p):
        cp = cumulant(p[0], p[1], sigma)
        return p[0] * x + p[1] * y - cp.value if cp.in_domain else -math.inf

    ex, ey = math.log(x), math.log(y)
    s2 = sigma * sigma
    p = np.array([(6.0 * (2.0 * ex - ey) - 4.8 * ex**2 + 4.8 * ex * ey - 2.2 * ey**2) / s2,
                  (-2.0 * (3.0 * ex - 2.0 * ey) - 0.6 * ex**2 + 1.6 * ex * ey - 0.4 * ey**2) / s2])
    for _ in range(200):
        if math.isfinite(f(p)):
            break
        p *= 0.5
    fp = f(p)
    scale = max(1.0, abs(x), abs(y))
    iters, converged, newton_ok = 0, False, True
    while newton_ok and iters < 60:
        iters += 1
        g, H = _replaced_fd_grad_hess(f, p, fp, 1e-6 * max(1.0, float(np.max(np.abs(p)))))
        if g is None:
            break
        if float(np.max(np.abs(g))) <= 1e-9 * scale:
            converged = True
            break
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = g.copy()
        if not np.all(np.isfinite(step)):
            step = g.copy()
        t, moved = 1.0, False
        for _ in range(60):
            fc = f(p + t * step)
            if math.isfinite(fc) and fc > fp:
                p, fp, moved = p + t * step, fc, True
                break
            t *= 0.5
        newton_ok = moved
    if not converged:
        res = minimize(lambda q: -f(np.asarray(q)), p, method="Nelder-Mead",
                       options=dict(xatol=1e-12, fatol=1e-15, maxiter=6000, maxfev=6000))
        iters += res.nit
        fc = f(np.asarray(res.x))
        if math.isfinite(fc) and fc >= fp:
            p, fp = np.asarray(res.x), fc
        g, _ = _replaced_fd_grad_hess(f, p, fp, 1e-7 * max(1.0, float(np.max(np.abs(p)))))
        converged = g is not None and float(np.max(np.abs(g))) <= 1e-6 * scale
    # rounding error and Hessian at this path's own theta, from the profile
    # terms by the implicit differentiation of legendre_point
    theta, a, sqrt_y = float(p[0]), 0.5 * sigma * sigma, math.sqrt(y)
    k, k1, k2, m, m1, m2, *_ = _profile_terms(a * theta)
    noise = 4.0 * heston_rate._EPS * (abs(theta * x) + ((1.0 + y) * abs(k) + 2.0 * sqrt_y * abs(m)) / a)
    hessian = None
    if converged:
        curv = a * ((1.0 + y) * k2 - 2.0 * sqrt_y * m2)
        c = k1 - m1 / sqrt_y
        theta_y = -c / curv
        hessian = (-1.0 / curv, theta_y, c * theta_y + m / (2.0 * a * y * sqrt_y))
    return heston_rate.LegendrePoint(x=x, y=y, sigma=sigma, value=max(fp, 0.0), theta=theta,
                                     phi=float(p[1]), iterations=iters, converged=bool(converged),
                                     noise=noise, hessian=hessian)


class TestReplacedPathRegression:
    LOG_GRID = np.linspace(-2.0, 2.0, 9)

    def test_rate_IH_numeric_matches(self):
        # the replaced path does not converge where small x meets large y
        # (its maximiser sits within rounding of the pole of Lambda), so
        # only the points it certifies are compared
        compared = 0
        for sigma in GRID_SIGMAS:
            for ex in self.LOG_GRID:
                for ey in self.LOG_GRID:
                    x, y = math.exp(ex), math.exp(ey)
                    old = _replaced_legendre_point(ex, ey, sigma)
                    if not old.converged:
                        continue
                    compared += 1
                    new = rate_IH_numeric(x, y, sigma)
                    assert abs(new - old.value) <= max(1e-12 * abs(old.value), 1e-14), (ex, ey, sigma)
        assert compared >= 200

    @pytest.mark.parametrize("name", ["tanh_sqrt_rho_m07", "tanh_sqrt_rho_0"])
    def test_rates_match(self, name, monkeypatch):
        model = load_model(str(MODELS_DIR / f"{name}.json"))
        cases = [(european_rate, model.s0), (vix_rate, vix_spot(model))]
        ks = (-0.3, -0.15, -0.05, -0.01, 0.01, 0.05, 0.15, 0.3)
        new = [solve(model, ref * math.exp(k)).rate for solve, ref in cases for k in ks]
        monkeypatch.setattr(heston_rate, "legendre_point", _replaced_legendre_point)
        old = [solve(model, ref * math.exp(k)).rate for solve, ref in cases for k in ks]
        assert np.max(np.abs(np.subtract(new, old))) <= 1e-12


class TestConvergenceCertificate:
    def test_grid_sweep_converges(self):
        for sigma in GRID_SIGMAS:
            for ex in np.linspace(-2.0, 2.0, 17):
                for ey in np.linspace(-2.0, 2.0, 17):
                    x, y = math.exp(ex), math.exp(ey)
                    pt = legendre_point(math.log(x), math.log(y), sigma)
                    assert pt.converged, (ex, ey, sigma, pt)
                    assert rate_IH_numeric(x, y, sigma) == pt.value

    @pytest.mark.parametrize("name", ["tanh_sqrt_rho_m07", "tanh_sqrt_rho_0"])
    @pytest.mark.parametrize("product", ["european", "vix"])
    def test_smile_needs_no_nelder_mead(self, name, product, monkeypatch, tmp_path):
        # there is no fallback to run: every transform along the smile must
        # certify its maximiser
        certified = []

        def recording(*args):
            pt = legendre_point(*args)
            certified.append(pt.converged)
            return pt

        monkeypatch.setattr(heston_rate, "legendre_point", recording)
        out = tmp_path / "smile.csv"
        argv = ["smile", "--model", str(MODELS_DIR / f"{name}.json"), "--product", product,
                "--kmin", "-0.3", "--kmax", "0.3", "--kcount", "25", "--out", str(out)]
        assert cli.main(argv) == 0
        assert len(out.read_text().splitlines()) == 26
        assert certified and all(certified)

    def test_forced_non_certification_reports_unconverged(self, monkeypatch):
        # there is no fallback: an uncertified maximiser is returned as Newton
        # left it, flagged, and every caller that needs a certificate refuses it
        x, y = math.exp(0.7), math.exp(-0.4)
        newton = legendre_point(0.7, -0.4, 1.0)
        monkeypatch.setattr(heston_rate, "_GRAD_TOL", 0.0)
        pt = legendre_point(0.7, -0.4, 1.0)
        assert newton.converged and not pt.converged
        assert pt.value == pytest.approx(newton.value, rel=1e-12)
        with pytest.raises(RuntimeError):
            rate_IH_numeric(x, y, 1.0)


class TestDanskin:
    @pytest.mark.parametrize("ex,ey,sigma", [
        (0.5, 0.1, 1.0), (-0.6, 0.3, 1.0), (0.3, -0.8, 0.5),
        (-1.2, -0.4, 2.0), (1.0, 1.5, 1.0), (-0.4, 1.2, 0.5),
    ])
    def test_gradient_is_maximiser(self, ex, ey, sigma):
        # grad I_H(x, y) = (theta*, phi*), the gradient a Newton step on the
        # outer rate minimisation needs
        x, y = math.exp(ex), math.exp(ey)
        assert max(abs(ex), abs(ey)) > 0.25
        pt = legendre_point(ex, ey, sigma)
        hx, hy = 1e-5 * x, 1e-5 * y
        d_x = (rate_IH_numeric(x + hx, y, sigma) - rate_IH_numeric(x - hx, y, sigma)) / (2 * hx)
        d_y = (rate_IH_numeric(x, y + hy, sigma) - rate_IH_numeric(x, y - hy, sigma)) / (2 * hy)
        assert d_x == pytest.approx(pt.theta, rel=1e-6, abs=1e-6)
        assert d_y == pytest.approx(pt.phi, rel=1e-6, abs=1e-6)


    @pytest.mark.parametrize("ex,ey,sigma", [
        (0.5, 0.1, 1.0), (-0.6, 0.3, 1.0), (0.3, -0.8, 0.5),
        (-1.2, -0.4, 2.0), (1.0, 1.5, 1.0), (-0.4, 1.2, 0.5), (0.05, -0.02, 1.0),
    ])
    def test_hessian_is_maximiser_jacobian(self, ex, ey, sigma):
        # grad^2 I_H from implicit differentiation of the profile against
        # central differences of the Danskin gradient (theta*, phi*)
        x, y = math.exp(ex), math.exp(ey)
        i_xx, i_xy, i_yy = legendre_point(ex, ey, sigma).hessian
        hx, hy = 1e-5 * x, 1e-5 * y
        up_x, dn_x = legendre_point(math.log(x + hx), ey, sigma), legendre_point(math.log(x - hx), ey, sigma)
        up_y, dn_y = legendre_point(ex, math.log(y + hy), sigma), legendre_point(ex, math.log(y - hy), sigma)
        scale = max(abs(i_xx), abs(i_xy), abs(i_yy))
        for fd, exact in [((up_x.theta - dn_x.theta) / (2 * hx), i_xx),
                          ((up_x.phi - dn_x.phi) / (2 * hx), i_xy),
                          ((up_y.theta - dn_y.theta) / (2 * hy), i_xy),
                          ((up_y.phi - dn_y.phi) / (2 * hy), i_yy)]:
            assert abs(fd - exact) <= 1e-6 * scale, (fd, exact)

    def test_uncertified_transform_gives_none(self, monkeypatch):
        monkeypatch.setattr(heston_rate, "_GRAD_TOL", 0.0)
        assert SquareRootVolOfVol(1.0).path_rate(0.7, -0.4, 1.0) is None

    @pytest.mark.parametrize("ex,ey,sigma", [(0.5, 0.1, 1.0), (-1.2, -0.4, 2.0), (0.05, -0.02, 1.0)])
    def test_one_profile_evaluation_per_point(self, ex, ey, sigma, monkeypatch):
        # the derivatives are read off the transform's last evaluation: a
        # square-root path_rate call evaluates the profile kernel exactly as
        # often as the legendre_point call inside it
        calls = {"terms": 0}
        inner = []

        def counting_terms(u):
            calls["terms"] += 1
            return _profile_terms(u)

        def counting_point(*args):
            before = calls["terms"]
            pt = legendre_point(*args)
            inner.append(calls["terms"] - before)
            return pt

        monkeypatch.setattr(heston_rate, "_profile_terms", counting_terms)
        monkeypatch.setattr(heston_rate, "legendre_point", counting_point)
        assert SquareRootVolOfVol(sigma).path_rate(ex, ey, 1.0) is not None
        assert len(inner) == 1 and inner[0] > 0
        assert calls["terms"] == inner[0]
