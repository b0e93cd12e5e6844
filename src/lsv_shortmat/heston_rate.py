"""Joint rate function for the square-root (Heston-type) variance factor.

The scaled cumulant of (integrated variance, terminal variance) for
dV = mu V dt + sigma sqrt(V) dZ has the closed form

             sqrt(2 theta)   sqrt(2 theta) tan(c) + sigma phi
    Lambda = ------------- * ---------------------------------   (theta >= 0)
                 sigma       sqrt(2 theta) - sigma phi tan(c)

with c = sigma sqrt(2 theta) / 2, and the analogous tanh expression for
theta < 0.  Nothing here evaluates Lambda itself: it defines the joint rate
function, its Legendre-Fenchel transform

    I_H(x, y) = sup_{theta, phi} [theta x + phi y - Lambda(theta, phi)],

which this module computes numerically, with its gradient and Hessian,
and as a quartic expansion in (log x, log y) that serves as a cross-check.
Lambda is a Moebius function of phi, so the best phi at fixed theta is
explicit and the transform reduces to a concave maximisation over theta
alone, with closed-form slope and curvature; Newton ascent from the series
warm start solves it and certifies the maximiser it finds (see
:func:`legendre_point`).  The rate solver runs no such ascent: stationarity
in theta makes x an explicit, increasing function of u = a theta at fixed y,
so :func:`profile_rate` takes the maximiser as its argument and reads I_H,
its derivatives and log x with its derivatives (the solver's chart) off one
profile evaluation; :func:`legendre_point` is its oracle.  The variance-path
rate function for a factor started at v0 is the rescaling
H(y, z) = v0 * I_H(z/v0, e^y/v0).
"""

from __future__ import annotations

import math

from ._record import Record
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


def _warm_start(eps_x: float, eps_y: float, sigma: float) -> float:
    # expansion of the maximising theta around (x, y) = (1, 1)
    return (6.0 * (2.0 * eps_x - eps_y) - 4.8 * eps_x**2 + 4.8 * eps_x * eps_y
            - 2.2 * eps_y**2) / (sigma * sigma)


_EPS = 2.0**-52
# the series of _profile_terms (:mod:`._sinc`) to ten terms, highest order first
_ROWS = tuple(zip(*(c[9::-1] for c in (SINC_SERIES, SINC_D1_SERIES, SINC_D2_SERIES, K_DEV_SERIES, M_DEV_SERIES))))


def _profile_terms(u: float):
    """k(u) = sqrt(u) cot(sqrt u) and m(u) = sqrt(u) / sin(sqrt u) with their
    first two derivatives in u, and k~ = k - 1 + u/3 and m~ = m - 1 - u/6
    with their first; None for sqrt(u) >= pi.

    Both are quotients of the entire functions f(u) = cos(sqrt u) and
    g(u) = sin(sqrt u)/sqrt u (cosh(sqrt(-u)) and sinh(sqrt(-u))/sqrt(-u)
    for u < 0): k = f/g and m = 1/g, with f' = -g/2, g' = (f - g)/(2u) and
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


# |gradient| / max(1, x, y) that certifies a stationary point
_GRAD_TOL = 1e-9
# Newton stops early once the gradient is this small (relative as above)
_GRAD_STOP = 1e-13


def legendre_point(log_x: float, log_y: float, sigma: float) -> LegendrePoint:
    """Maximise theta x + phi y - Lambda(theta, phi) at x = e^{log_x}, y = e^{log_y}.

    With a = sigma^2/2, u = a theta, f = cos(sqrt u) and
    g = sin(sqrt u)/sqrt u, Lambda = (phi f + theta g) / D with
    D = f - a phi g > 0 and Lambda_phi = 1/D^2, so the best phi at fixed
    theta has D = 1/sqrt(y) and I_H(x, y) = sup_theta G(theta),

        G(theta) = theta x + ((1 + y) k(u) - 2 sqrt(y) m(u)) / a,
        phi*(theta) = (k(u) - m(u)/sqrt(y)) / a,

    with k = f/g and m = 1/g (:func:`_profile_terms`); eliminating phi keeps
    the iterates clear of the pole D = 0.  Those O(1) terms cancel to
    I_H = O(p^2) near the flat path p = (log x, log y) = 0, so G, its slope
    and phi* are summed from terms of their own order, with x - 1, y - 1,
    sqrt(y) - 1 from expm1, k~ = k - 1 + u/3 and m~ = m - 1 - u/6:

        G = theta [(x - 1) - ((y - 1) + (sqrt(y) - 1))/3]
            + ((1 - sqrt y)^2 + (1 + y) k~ - 2 sqrt(y) m~) / a.

    Newton ascent on G from the series warm start takes one
    :func:`_profile_terms` evaluation per step, halved until it stays in the
    domain (sqrt(u) < pi) and does not lower G by more than its rounding
    error ``noise`` (4 eps times the size of G's terms), and stops when the
    slope is below 1e-13 max(1, x, y) or after the step that brings the
    Newton decrement below ``noise``.  ``converged`` certifies a
    stationary point, |G'| <= 1e-9 max(1, x, y) with G'' < 0 (then the
    Hessian in (theta, phi) is negative definite, as Lambda_phi_phi =
    2 a g / D^3 > 0).  There is no fallback: :func:`rate_IH_numeric` raises
    on an uncertified point.

    The derivatives of I_H come from the last evaluation's terms: by
    Danskin's theorem the gradient is (theta*, phi*), and the Hessian is its
    Jacobian, by implicit differentiation of G'(theta*; x, y) = 0 and phi*:

        dtheta/dx = -1/G'',   dtheta/dy = dphi/dx = -c/G'',
        dphi/dy = c dtheta/dy + m / (2 a y^{3/2}),   c = k' - m'/sqrt(y).
    """
    if not (-math.inf < log_x < 709.78 and -math.inf < log_y < 709.78):
        raise ValueError("transform arguments must be the logs of positive finite floats")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    a = 0.5 * sigma * sigma
    dx, dy, ds = math.expm1(log_x), math.expm1(log_y), math.expm1(0.5 * log_y)
    x, y, sqrt_y = 1.0 + dx, 1.0 + dy, 1.0 + ds
    wk, wm, lin, lin_size = 1.0 + y, 2.0 * sqrt_y, dx - (dy + ds) / 3.0, abs(dx) + (abs(dy) + abs(ds)) / 3.0

    def evaluate(theta: float):
        u = a * theta
        terms = _profile_terms(u)
        if terms is None:
            return None
        k, _, k2, m, _, m2, kd, kd1, md, md1 = terms
        value = theta * lin + (ds * ds + wk * kd - wm * md) / a
        size = wk * abs(kd) + wm * abs(md)
        if abs(u) > 1.0:
            # beyond the series (|u| > 1), k~ and m~ carry the rounding of k and m
            size += wk * (abs(k) + 1.0) + wm * (abs(m) + 1.0)
        noise = 4.0 * _EPS * (abs(theta) * lin_size + (ds * ds + size) / a)
        return value, noise, lin + wk * kd1 - wm * md1, a * (wk * k2 - wm * m2), terms

    scale = max(1.0, x, y)
    theta = _warm_start(log_x, log_y, sigma)
    cur = evaluate(theta)
    while cur is None:
        theta *= 0.5
        cur = evaluate(theta)
    iters = 0
    while iters < 60:
        iters += 1
        fp, noise, slope, curv, _ = cur
        if abs(slope) <= _GRAD_STOP * scale:
            break
        step = -slope / curv if curv < 0.0 else slope
        # a decrement below the rounding error: this step is the last that helps
        last = curv < 0.0 and slope * step <= noise
        t = 1.0
        for _ in range(60):
            cand = evaluate(theta + t * step)
            if cand is not None and cand[0] >= fp - noise:
                break
            t *= 0.5
        else:
            break
        theta, cur = theta + t * step, cand
        if last:
            break
    value, noise, slope, curv, (k, k1, _, m, m1, _, kd, _, md, _) = cur
    converged = abs(slope) <= _GRAD_TOL * scale and curv < 0.0
    c = k1 - m1 / sqrt_y
    hessian = (-1.0 / curv, -c / curv, c * (-c / curv) + m / (2.0 * a * y * sqrt_y)) if converged else None
    u = a * theta
    # the sup includes (0, 0) where the objective vanishes
    return LegendrePoint(x, y, sigma, max(value, 0.0), theta, ((ds - u / 6.0 - md) / sqrt_y - u / 3.0 + kd) / a,
                         iters, converged, noise, hessian)


def profile_rate(u: float, log_y: float, sigma: float):
    """I_H in (log x, log y) at the x whose maximiser is theta = u/a (a = sigma^2/2),
    from one :func:`_profile_terms` evaluation: no inner maximisation.

    The stationarity of G (see :func:`legendre_point`) gives that x as an
    explicit function of u at fixed y,

        x = 2 sqrt(y) m'(u) - (1 + y) k'(u),
        x - 1 = ((y - 1) + (sqrt(y) - 1))/3 + 2 sqrt(y) m~'(u) - (1 + y) k~'(u),

    increasing in u (dx/du = -G''/a > 0) from 0 as u -> -inf to inf as
    sqrt(u) -> pi.  At (x, y) theta is the maximiser, so I_H = G(theta),
    its gradient (theta, phi*), its Hessian and its rounding error are
    :func:`legendre_point`'s formulas at the same terms, in the same
    deviation form.  Returns (I_H, rounding error, gradient, Hessian,
    chart) with the gradient (I_lx, I_ly) and Hessian (I_lxlx, I_lxly,
    I_lyly) in (log x, log y), and the chart (log x, d log x/du,
    d log x/d log y); None for sqrt(u) >= pi, or where rounding leaves
    x <= 0 or G'' >= 0.
    """
    terms = _profile_terms(u)
    if terms is None:
        return None
    k, k1, k2, m, m1, m2, kd, kd1, md, md1 = terms
    a = 0.5 * sigma * sigma
    dy, ds = math.expm1(log_y), math.expm1(0.5 * log_y)
    y, sqrt_y = 1.0 + dy, 1.0 + ds
    wk, wm = 1.0 + y, 2.0 * sqrt_y
    lin = wm * md1 - wk * kd1
    dx = (dy + ds) / 3.0 + lin
    curv = a * (wk * k2 - wm * m2)
    if not (dx > -1.0 and curv < 0.0):
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
    i_yy = c * i_xy + m / (2.0 * a * y * sqrt_y)
    return (max(value, 0.0), noise, (x * theta, y * phi),
            (x * (theta - x / curv), x * y * i_xy, y * (phi + y * i_yy)),
            (math.log1p(dx), -curv / (a * x), -c * y / x))


# the largest start :func:`profile_start` gives, (pi/2)^2
_U_START_MAX = 0.25 * math.pi**2


def profile_start(log_x: float, log_y: float, sigma: float) -> float:
    """The u of :func:`profile_rate` whose x lies near e^{log_x}: a times the
    series warm start, held inside sqrt(u) < pi."""
    return min(0.5 * sigma * sigma * _warm_start(log_x, log_y, sigma), _U_START_MAX)


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
