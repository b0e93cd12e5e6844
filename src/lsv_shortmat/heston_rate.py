"""Joint rate function for the square-root (Heston-type) variance factor.

With a = sigma^2/2, u = a theta, f = cos(sqrt u) and g = sin(sqrt u)/sqrt u
(cosh and sinh for u < 0), the scaled cumulant of (integrated variance,
terminal variance) for dV = mu V dt + sigma sqrt(V) dZ is
Lambda(theta, phi) = (phi f + theta g) / D, D = f - a phi g > 0.  Nothing
here evaluates it: the joint rate function is its Legendre-Fenchel transform

    I_H(x, y) = sup_{theta, phi} [theta x + phi y - Lambda(theta, phi)],

read with its gradient and Hessian off one profile evaluation at the
maximiser (:func:`_profile`): at a given maximiser for the rate solver
(:func:`profile_rate`), or at a given x as a bracketed root of the profile's
chart (:func:`legendre_point`); a quartic expansion in (log x, log y)
cross-checks it.  A factor started at v0 has H(y, z) = v0 I_H(z/v0, e^y/v0).
"""

from __future__ import annotations

import math

from ._record import Record
from ._roots import newton_bracketed
from ._sinc import K_DEV_SERIES, M_DEV_SERIES, SINC_D1_SERIES, SINC_D2_SERIES, SINC_SERIES

__all__ = ["LegendrePoint", "legendre_point", "profile_rate", "rate_IH_numeric", "rate_IH_series", "h_heston",
           "marginal_J1", "marginal_J2"]


# Names of retired layers that the benchmark tracer (perfbench/tracing.py)
# still reads and rebinds here; nothing calls them, so they resolve to None.
_TRACED_RETIRED = ("cumulant", "minimize")


def __getattr__(name):
    if name in _TRACED_RETIRED:
        return None
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class LegendrePoint(Record):
    """Result of the Legendre-Fenchel maximisation: I_H(x, y) as ``value``
    with its rounding error ``noise``, its gradient (theta, phi) and, for a
    certified maximiser, its Hessian (I_xx, I_xy, I_yy) (None otherwise)."""

    x: float
    y: float
    sigma: float
    value: float
    theta: float
    phi: float
    iterations: int
    converged: bool
    noise: float
    hessian: tuple[float, float, float] | None


_EPS = 2.0**-52
# the series of _profile_terms (:mod:`._sinc`) to ten terms, highest order first
_ROWS = tuple(zip(*(c[9::-1] for c in (SINC_SERIES, SINC_D1_SERIES, SINC_D2_SERIES, K_DEV_SERIES, M_DEV_SERIES))))


def _profile_terms(u: float):
    """k(u) = sqrt(u) cot(sqrt u) and m(u) = sqrt(u) / sin(sqrt u) with their
    first two derivatives in u, and k~ = k - 1 + u/3 and m~ = m - 1 - u/6
    with their first; None for sqrt(u) >= pi.

    Both are quotients of the entire functions f and g of the module
    docstring, k = f/g and m = 1/g, with f' = -g/2, g' = (f - g)/(2u) and
    g'' = -(g/2 + 3 g')/(2u).  Those quotients, k~ and m~ cancel near u = 0,
    the theta = 0 seam of the cumulant, so |u| <= 1 takes Taylor series and
    the closed forms serve beyond.  For u < -1, f and g are divided by
    cosh(sqrt(-u)), which leaves k unchanged and is multiplied back into m
    as a sech, so nothing overflows.

    Returns (k, k', k'', m, m', m'', k~, k~', m~, m~').
    """
    if abs(u) <= 1.0:
        # v^2 kh and v^2 mh are k~ g and m~ g; kh1 and mh1 their v-derivatives
        v = -u
        g = g1 = g2 = kh = kh1 = mh = mh1 = 0.0
        for c0, c1, c2, c3, c4 in _ROWS:
            g, g1, g2 = g * v + c0, g1 * v + c1, g2 * v + c2
            kh1, kh = kh1 * v + kh, kh * v + c3
            mh1, mh = mh1 * v + mh, mh * v + c4
        kd, md = v * v * kh / g, v * v * mh / g
        kd1 = -(v * (2.0 * kh + v * kh1) + kd * g1) / g
        md1 = -(v * (2.0 * mh + v * mh1) + md * g1) / g
        k, m = 1.0 - u / 3.0 + kd, 1.0 + u / 6.0 + md
    else:
        sech = 1.0
        if u > 0.0:
            c = math.sqrt(u)
            if c >= math.pi:
                return None
            f = math.cos(c)
            g = math.sin(c) / c
        else:
            r = math.sqrt(-u)
            f = 1.0
            g = math.tanh(r) / r
            e = math.exp(-r)
            sech = 2.0 * e / (1.0 + e * e)
        g1 = (f - g) / (2.0 * u)
        g2 = -(0.5 * g + 3.0 * g1) / (2.0 * u)
        k, m = f / g, sech / g
        kd, md = k - 1.0 + u / 3.0, m - 1.0 - u / 6.0
        kd1, md1 = -1.0 / 6.0 - k * g1 / g, -1.0 / 6.0 - m * g1 / g
    r1 = g1 / g
    r2 = g2 / g
    return (k, -0.5 - k * r1, 0.5 * r1 - k * r2 + 2.0 * k * r1 * r1,
            m, -m * r1, m * (2.0 * r1 * r1 - r2), kd, kd1, md, md1)


def _profile(u: float, log_y: float, sigma: float):
    """The transform in (x, y) at the x whose maximiser is theta = u/a, from
    one :func:`_profile_terms` evaluation.

    Lambda_phi = 1/D^2, so the best phi has D = 1/sqrt(y), clear of the pole
    D = 0, and I_H(x, y) = sup_theta G(theta) with

        G(theta) = theta x + ((1 + y) k(u) - 2 sqrt(y) m(u)) / a,
        phi*(theta) = (k(u) - m(u)/sqrt(y)) / a,

    k = f/g, m = 1/g.  G is concave, and G' = 0 gives the chart
    x = 2 sqrt(y) m'(u) - (1 + y) k'(u), increasing (dx/du = -G''/a > 0) from
    0 as u -> -inf to inf as sqrt(u) -> pi.  At that x, I_H = G(theta), its
    gradient is (theta, phi*) by Danskin's theorem, and its Hessian, their
    Jacobian, is I_xx = -1/G'', I_xy = -c/G'', I_yy = c I_xy + m/(2 a y^{3/2})
    with c = k' - m'/sqrt(y).  The O(1) terms cancel to O(p^2) near the flat
    path p = (log x, log y) = 0, so x, G and phi* are summed from terms of
    their own order, with y - 1 and sqrt(y) - 1 from expm1, k~ = k - 1 + u/3
    and m~ = m - 1 - u/6:

        x - 1 = ((y - 1) + (sqrt(y) - 1))/3 + 2 sqrt(y) m~'(u) - (1 + y) k~'(u),
        G = theta [(x - 1) - ((y - 1) + (sqrt(y) - 1))/3]
            + ((1 - sqrt y)^2 + (1 + y) k~ - 2 sqrt(y) m~) / a,

    and G's rounding error is 4 eps times the size of its terms.  Returns
    (I_H, rounding error, theta, phi*, G'', I_xy, I_yy, x - 1, y, chart), the
    chart (log x, d log x/du, d log x/d log y); None for sqrt(u) >= pi, or
    where rounding leaves x <= 0, G'' >= 0 or y^{3/2} = 0.
    """
    terms = _profile_terms(u)
    if terms is None:
        return None
    k, k1, k2, m, m1, m2, kd, kd1, md, md1 = terms
    a = 0.5 * sigma * sigma
    y, sqrt_y, dy, ds = math.exp(log_y), math.exp(0.5 * log_y), math.expm1(log_y), math.expm1(0.5 * log_y)
    wk, wm = 1.0 + y, 2.0 * sqrt_y
    lin = wm * md1 - wk * kd1
    dx = (dy + ds) / 3.0 + lin
    curv = a * (wk * k2 - wm * m2)
    den = 2.0 * a * y * sqrt_y
    if not (dx > -1.0 and curv < 0.0 and den > 0.0):
        return None
    x, theta = 1.0 + dx, u / a
    value = (u * lin + ds * ds + wk * kd - wm * md) / a
    size = wk * abs(kd) + wm * abs(md)
    if abs(u) > 1.0:
        # beyond the series (|u| > 1), k~ and m~ carry the rounding of k and m
        size += wk * (abs(k) + 1.0) + wm * (abs(m) + 1.0)
    noise = 4.0 * _EPS * (abs(theta) * (abs(dx) + (abs(dy) + abs(ds)) / 3.0) + (ds * ds + size) / a)
    phi = ((ds - u / 6.0 - md) / sqrt_y - u / 3.0 + kd) / a
    c = k1 - m1 / sqrt_y
    i_xy = -c / curv
    # the sup includes (0, 0) where the objective vanishes
    return (max(value, 0.0), noise, theta, phi, curv, i_xy, c * i_xy + m / den, dx, y,
            (math.log1p(dx), -curv / (a * x), -c * y / x))


def profile_rate(u: float, log_y: float, sigma: float):
    """I_H in (log x, log y) at the x whose maximiser is theta = u/a, from one
    :func:`_profile` evaluation: (I_H, rounding error, gradient (I_lx, I_ly),
    Hessian (I_lxlx, I_lxly, I_lyly), chart); None where :func:`_profile` is."""
    pt = _profile(u, log_y, sigma)
    if pt is None:
        return None
    value, noise, theta, phi, curv, i_xy, i_yy, dx, y, chart = pt
    x = 1.0 + dx
    return (value, noise, (x * theta, y * phi), (x * (theta - x / curv), x * y * i_xy, y * (phi + y * i_yy)),
            chart)


def profile_start(log_x: float, log_y: float, sigma: float) -> float:
    """The u of :func:`profile_rate` whose x lies near e^{log_x}: a times the
    expansion of the maximiser about (x, y) = (1, 1), held at sqrt(u) <= pi/2."""
    ex, ey, s2 = log_x, log_y, sigma * sigma
    warm = (6.0 * (2.0 * ex - ey) - 4.8 * ex**2 + 4.8 * ex * ey - 2.2 * ey**2) / s2
    return min(0.5 * s2 * warm, 0.25 * math.pi**2)


# |G'| / max(1, x, y) that certifies a stationary point, and |G'| / x below which the
# chart resolves x, to half the float digits
_GRAD_TOL, _X_TOL = 1e-9, 2.0**-26
_U_TOP = math.nextafter(math.pi, 0.0) ** 2  # the top of legendre_point's bracket


def legendre_point(log_x: float, log_y: float, sigma: float) -> LegendrePoint:
    """Maximise theta x + phi y - Lambda(theta, phi) at x = e^{log_x}, y = e^{log_y}.

    The maximiser is theta = u/a at the root of the chart, log x(u) = log_x,
    by :func:`._roots.newton_bracketed` from :func:`profile_start` in
    [-((1 + y)/x)^2, pi^2), as x(u) < 1.2 (1 + y)/(2 sqrt(-u)) for u < 0.
    ``iterations`` counts its :func:`_profile` evaluations, each giving
    log x(u) and d log x/du.  The point carries G at x and the profile's
    noise, gradient and Hessian at the root; ``converged`` certifies a
    stationary point, a profile (G'' < 0) with |x(u) - x| = |G'| at most
    1e-9 max(1, x, y) and 2^-26 x.  An x the chart cannot reach or resolve
    is not converged; :func:`rate_IH_numeric` raises on it.
    """
    if not (-math.inf < log_x < 709.78 and -math.inf < log_y < 709.78):
        raise ValueError("transform arguments must be the logs of positive finite floats")
    if not 0.0 < 0.5 * sigma * sigma < math.inf:
        raise ValueError("sigma must be positive, with sigma^2/2 a positive finite float")
    x, y = math.exp(log_x), math.exp(log_y)
    pt, evaluations = None, 0

    def gap(u):
        nonlocal pt, evaluations
        pt, evaluations = _profile(u, log_y, sigma), evaluations + 1
        return -math.inf if pt is None else pt[9][0] - log_x  # no profile: x(u) rounds to 0

    try:
        # the slope is asked at the last gap's u, and the last gap is within a few ulps of the root
        newton_bracketed(gap, lambda u: 0.0 if pt is None else pt[9][1], profile_start(log_x, log_y, sigma),
                         -math.exp(2.0 * (math.log1p(y) - log_x)), _U_TOP)
    except (ValueError, ArithmeticError):
        # no sign change, no root within the step cap, or an overflowing end: x is out of reach
        pt = None
    if pt is None:
        return LegendrePoint(x, y, sigma, math.nan, math.nan, math.nan, evaluations, False, math.nan, None)
    value, noise, theta, phi, curv, i_xy, i_yy, dx_u, _, _ = pt
    # x - x(u) is G' at theta, and G at x is the profile's G at x(u) plus theta (x - x(u))
    gap_x = math.expm1(log_x) - dx_u
    converged = abs(gap_x) <= min(_GRAD_TOL * max(1.0, x, y), _X_TOL * x)
    return LegendrePoint(x, y, sigma, max(value + theta * gap_x, 0.0), theta, phi, evaluations, converged,
                         noise, (-1.0 / curv, i_xy, i_yy) if converged else None)


def rate_IH_numeric(x: float, y: float, sigma: float) -> float:
    """Joint rate function I_H(x, y) by numerical Legendre transform."""
    pt = legendre_point(math.log(x), math.log(y), sigma)
    if not pt.converged:
        raise RuntimeError(f"rate transform did not converge at x={x}, y={y}: value={pt.value}, "
                           f"theta={pt.theta}, phi={pt.phi}, iters={pt.iterations}")
    return pt.value


def rate_IH_series(eps_x: float, eps_y: float, sigma: float) -> float:
    """Quartic expansion of I_H in (eps_x, eps_y) = (log x, log y)."""
    ex, ey = eps_x, eps_y
    quad = 6.0 * ex * ex - 6.0 * ex * ey + 2.0 * ey * ey
    cub = 2.4 * ex**3 - 0.6 * ex**2 * ey - 2.2 * ex * ey**2 + 1.2 * ey**3
    quart = (271.0 / 350.0) * ex**4 - (61.0 / 175.0) * ex**3 * ey \
        + (39.0 / 350.0) * ex**2 * ey**2 - (129.0 / 175.0) * ex * ey**3 \
        + (473.0 / 1050.0) * ey**4
    return (quad + cub + quart) / (sigma * sigma)


def h_heston(y: float, z: float, v0: float, sigma: float) -> float:
    """Variance-path rate function for square-root vol-of-vol.

    H(y, z) = v0 * I_H(z/v0, e^y/v0) by the numeric transform everywhere;
    the quartic series :func:`rate_IH_series` is a cross-check only.
    """
    if z <= 0.0 or v0 <= 0.0:
        raise ValueError("h_heston requires positive z and v0")
    return v0 * rate_IH_numeric(z / v0, math.exp(y) / v0, sigma)


def marginal_J1(eps_x: float, sigma: float) -> float:
    """Marginal rate of the time-averaged variance: inf over the terminal leg."""
    e = eps_x
    return (1.5 * e * e + 0.6 * e**3 + (271.0 / 1400.0) * e**4) / (sigma * sigma)


def marginal_J2(eps_y: float, sigma: float) -> float:
    """Marginal rate of the terminal variance: inf over the averaged leg.

    This is the quartic Taylor expansion of the exact marginal
    2 (e^(eps/2) - 1)^2 / sigma^2, with quadratic coefficient 1/2.
    """
    e = eps_y
    return (0.5 * e * e + 0.25 * e**3 + (7.0 / 96.0) * e**4) / (sigma * sigma)
