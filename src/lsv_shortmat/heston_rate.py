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
:func:`legendre_point`).  The variance-path rate function for a factor
started at v0 is the rescaling  H(y, z) = v0 * I_H(z/v0, e^y/v0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "LegendrePoint",
    "legendre_point",
    "rate_IH_numeric",
    "rate_IH_series",
    "h_heston",
    "marginal_J1",
    "marginal_J2",
]


# Names of retired layers that the benchmark tracer (perfbench/tracing.py)
# still reads and rebinds here; nothing calls them, so they resolve to None.
_TRACED_RETIRED = ("cumulant", "minimize")


def __getattr__(name):
    if name in _TRACED_RETIRED:
        return None
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class LegendrePoint:
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


# Taylor coefficients in v = -u of f(u) = cos(sqrt u), g(u) = sin(sqrt u)/sqrt u
# and of g', g'' (d/du); 12 terms leave a truncation error below 1e-18 for
# |u| <= 1, where the closed forms of g' and g'' lose digits to cancellation
_SERIES_TERMS = 12
_COS_SERIES = tuple(1.0 / math.factorial(2 * k) for k in range(_SERIES_TERMS))
_SINC_SERIES = tuple(1.0 / math.factorial(2 * k + 1) for k in range(_SERIES_TERMS))
_SINC_D1_SERIES = tuple(-(k + 1) / math.factorial(2 * k + 3) for k in range(_SERIES_TERMS))
_SINC_D2_SERIES = tuple((k + 2) * (k + 1) / math.factorial(2 * k + 5) for k in range(_SERIES_TERMS))
_EPS = 2.0**-52


def _horner(coeffs: tuple, v: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


def _profile_terms(u: float):
    """k(u) = sqrt(u) cot(sqrt u) and m(u) = sqrt(u) / sin(sqrt u) with their
    first two derivatives in u, or None for sqrt(u) >= pi.

    Both are quotients of the entire functions f(u) = cos(sqrt u) and
    g(u) = sin(sqrt u)/sqrt u (cosh(sqrt(-u)) and sinh(sqrt(-u))/sqrt(-u)
    for u < 0): k = f/g and m = 1/g, with f' = -g/2, g' = (f - g)/(2u) and
    g'' = -(g/2 + 3 g')/(2u).  Those quotients cancel near u = 0, the
    theta = 0 seam of the cumulant, so |u| <= 1 takes Taylor series and
    the closed forms serve beyond.  For u < -1, f and g are divided by
    cosh(sqrt(-u)), which leaves k unchanged and is multiplied back into m
    as a sech, so nothing overflows.

    Returns (k, k', k'', m, m', m'').
    """
    sech = 1.0
    if abs(u) <= 1.0:
        f = _horner(_COS_SERIES, -u)
        g = _horner(_SINC_SERIES, -u)
        g1 = _horner(_SINC_D1_SERIES, -u)
        g2 = _horner(_SINC_D2_SERIES, -u)
    else:
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
    r1 = g1 / g
    r2 = g2 / g
    k = f / g
    m = sech / g
    return (k, -0.5 - k * r1, 0.5 * r1 - k * r2 + 2.0 * k * r1 * r1,
            m, -m * r1, m * (2.0 * r1 * r1 - r2))


# |gradient| / max(1, x, y) that certifies a stationary point
_GRAD_TOL = 1e-9
# Newton stops early once the gradient is this small (relative as above)
_GRAD_STOP = 1e-13


def legendre_point(x: float, y: float, sigma: float) -> LegendrePoint:
    """Maximise theta*x + phi*y - Lambda(theta, phi) over the cumulant domain.

    With a = sigma^2/2, u = a theta, f = cos(sqrt u) and
    g = sin(sqrt u)/sqrt u, the cumulant is the quotient

        Lambda = (phi f + theta g) / D,   D = f - a phi g > 0,

    a Moebius function of phi with Lambda_phi = (f^2 + u g^2)/D^2 = 1/D^2.
    So the best phi at fixed theta has D = 1/sqrt(y), and the transform is
    the one-dimensional concave maximisation

        I_H(x, y) = sup_theta G(theta),
        G(theta) = theta x + ((1 + y) k(u) - 2 sqrt(y) m(u)) / a,
        phi*(theta) = (k(u) - m(u)/sqrt(y)) / a,

    with k = f/g and m = 1/g (:func:`_profile_terms`).  Newton ascent on G
    uses its exact slope and curvature, one :func:`_profile_terms`
    evaluation per step, from the series warm start.  Eliminating phi
    exactly keeps the iterates clear of the pole D = 0; in (theta, phi) the
    maximiser lies so close to it for small x and large y that Lambda
    cannot be evaluated there to useful accuracy.

    A step is halved until it stays inside the domain (sqrt(u) < pi) and
    does not lower G by more than its rounding error, so the ascent cannot
    stall at the optimum on a strict comparison.  Newton stops when the
    slope vanishes to 1e-13 (relative to max(1, x, y)) or after the step
    that brings the Newton decrement below the rounding error.
    ``converged`` certifies a stationary point: the gradient of the
    objective at (theta, phi*) is (G', 0), and its Hessian is negative
    definite exactly when G'' < 0 (Lambda_phi_phi = 2 a g / D^3 > 0), so
    converged means |G'| <= 1e-9 max(1, x, y) with G'' < 0.  There is no
    fallback: an uncertified point is returned with ``converged`` False,
    which :func:`rate_IH_numeric` raises on and the square-root
    ``path_rate`` (:mod:`lsv_shortmat.model`) reports as None.

    The derivatives of I_H come from the last evaluation's terms, with no
    further one.  By Danskin's theorem the gradient is the maximiser
    (theta*, phi*).  The Hessian is its Jacobian, by implicit
    differentiation of the profile stationarity
    G'(theta*; x, y) = x + (1 + y) k' - 2 sqrt(y) m' = 0 and of phi*:

        dtheta/dx = -1/G'',   dtheta/dy = dphi/dx = -c/G'',
        dphi/dy = c dtheta/dy + m / (2 a y^{3/2}),   c = k' - m'/sqrt(y),

    with k, m and their u-derivatives at u = a theta*.  ``noise`` is 4 eps
    times the magnitudes of the terms of G, whose sum cancels to I_H near
    (1, 1).
    """
    if not (0.0 < x < math.inf and 0.0 < y < math.inf):
        raise ValueError("transform arguments must be positive and finite")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    a = 0.5 * sigma * sigma
    sqrt_y = math.sqrt(y)

    def evaluate(theta: float):
        terms = _profile_terms(a * theta)
        if terms is None:
            return None
        k, k1, k2, m, m1, m2 = terms
        value = theta * x + ((1.0 + y) * k - 2.0 * sqrt_y * m) / a
        noise = 4.0 * _EPS * (abs(theta * x) + ((1.0 + y) * abs(k) + 2.0 * sqrt_y * abs(m)) / a)
        slope = x + (1.0 + y) * k1 - 2.0 * sqrt_y * m1
        curv = a * ((1.0 + y) * k2 - 2.0 * sqrt_y * m2)
        return value, noise, slope, curv, terms

    scale = max(1.0, x, y)
    theta = _warm_start(math.log(x), math.log(y), sigma)
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
    value, noise, slope, curv, (k, k1, _, m, m1, _) = cur
    converged = abs(slope) <= _GRAD_TOL * scale and curv < 0.0
    c = k1 - m1 / sqrt_y
    hessian = (-1.0 / curv, -c / curv, c * (-c / curv) + m / (2.0 * a * y * sqrt_y)) if converged else None
    # the sup includes (0, 0) where the objective vanishes
    return LegendrePoint(x=x, y=y, sigma=sigma, value=max(value, 0.0), theta=theta,
                         phi=(k - m / sqrt_y) / a, iterations=iters, converged=converged,
                         noise=noise, hessian=hessian)


def rate_IH_numeric(x: float, y: float, sigma: float) -> float:
    """Joint rate function I_H(x, y) by numerical Legendre transform."""
    pt = legendre_point(x, y, sigma)
    if not pt.converged:
        raise RuntimeError(
            f"rate transform did not converge at x={x}, y={y}: "
            f"value={pt.value}, theta={pt.theta}, phi={pt.phi}, iters={pt.iterations}"
        )
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
