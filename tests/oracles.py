"""Closed forms the package no longer evaluates, kept as test oracles.

The VIX solve runs over the spot level, so nothing in the package inverts
eta^2; the square-root transform works on the Moebius profile of the
cumulant Lambda, so nothing evaluates Lambda or its domain edge.  The tests
still check the solver and the transform against these independent forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from lsv_shortmat._roots import newton_bracketed
from lsv_shortmat.model import TanhLocalVol


def tanh_eta_sq_log_inverse(spec: TanhLocalVol, w: float) -> float:
    """Closed form k = x0 + atanh((sqrt(w) - f0) / f1) of eta(k)^2 = w for a
    tanh eta, for w in the open range ((f0 - |f1|)^2, (f0 + |f1|)^2) of
    eta^2; ValueError outside it (f1 = 0 leaves it empty)."""
    lo, hi = spec.f0 - abs(spec.f1), spec.f0 + abs(spec.f1)
    w_lo, w_hi = lo * lo, hi * hi
    if not (w_lo < w < w_hi):
        raise ValueError(f"eta^2 target {w} outside attainable range ({w_lo}, {w_hi})")
    return spec.x0 + math.atanh((math.sqrt(w) - spec.f0) / spec.f1)


@dataclass(frozen=True)
class CumulantPoint:
    """Cumulant value at (theta, phi); in_domain is False past the boundary
    curves, where the value is +inf."""

    theta: float
    phi: float
    sigma: float
    value: float
    in_domain: bool


def cumulant(theta: float, phi: float, sigma: float) -> CumulantPoint:
    """The scaled cumulant Lambda of the square-root factor (see
    :mod:`lsv_shortmat.heston_rate`), flagging out-of-domain points.

    The theta > 0 branch is written with the tangent expanded into
    sine/cosine so that nothing blows up at c = pi/2 (the pole cancels
    between numerator and denominator); the domain edge is where the
    denominator changes sign, capped at c = pi.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if theta == 0.0:
        if sigma * sigma * phi < 2.0:
            val = phi / (1.0 - sigma * sigma * phi / 2.0)
            return CumulantPoint(theta, phi, sigma, val, True)
        return CumulantPoint(theta, phi, sigma, math.inf, False)
    if theta > 0.0:
        s2t = math.sqrt(2.0 * theta)
        c = sigma * s2t / 2.0
        if c >= math.pi:
            return CumulantPoint(theta, phi, sigma, math.inf, False)
        den = s2t * math.cos(c) - sigma * phi * math.sin(c)
        if den <= 0.0:
            return CumulantPoint(theta, phi, sigma, math.inf, False)
        num = s2t * math.sin(c) + sigma * phi * math.cos(c)
        return CumulantPoint(theta, phi, sigma, (s2t / sigma) * num / den, True)
    s2t = math.sqrt(-2.0 * theta)
    t = math.tanh(sigma * s2t / 2.0)
    den = s2t - sigma * phi * t
    if den <= 0.0:
        return CumulantPoint(theta, phi, sigma, math.inf, False)
    num = sigma * phi - s2t * t
    return CumulantPoint(theta, phi, sigma, (s2t / sigma) * num / den, True)


def boundary_theta_c(phi: float, sigma: float) -> float:
    """Smallest theta > 0 on the cumulant domain boundary at fixed phi.

    Parameterised by c = sigma sqrt(2 theta)/2 in (0, pi), the boundary is
    the first zero of sqrt(2 theta) cos(c) - sigma phi sin(c).  For
    sigma^2 phi >= 2 the domain is empty already at theta = 0 and the
    function returns 0.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if sigma * sigma * phi >= 2.0:
        return 0.0

    def g(c: float) -> float:
        return (2.0 * c / sigma) * math.cos(c) - sigma * phi * math.sin(c)

    def gp(c: float) -> float:
        return (2.0 / sigma) * (math.cos(c) - c * math.sin(c)) - sigma * phi * math.cos(c)

    lo, hi = 1e-12, math.pi * (1.0 - 1e-14)
    if g(lo) <= 0.0 or g(hi) >= 0.0:
        return math.inf
    # g(pi/2) = -sigma phi: the root lies below pi/2 for phi > 0, above for phi < 0
    c_star = newton_bracketed(g, gp, 0.5 * math.pi, lo, hi)
    return 2.0 * c_star * c_star / (sigma * sigma)


def sabr_rate_mp(model, strike: float, dps: int = 50) -> float:
    """The lognormal stochastic-vol European rate of
    :func:`lsv_shortmat.rate_solver.sabr_rate_closed` in mpmath at ``dps``
    digits, from the float log-moneyness log(K/S0) taken as exact:
    J = (2/sigma^2) log^2((S + zeta + rho)/(1 + rho)), S^2 = 1 + 2 rho zeta +
    zeta^2, zeta = (sigma/2) log(K/S0)/sqrt(V0), in the form that cancels
    near the money, which the digits carry."""
    import mpmath as mp

    with mp.workdps(dps):
        sigma, rho = mp.mpf(model.vol_of_vol.sigma), mp.mpf(model.rho)
        zeta = sigma / 2 * mp.mpf(math.log(strike / model.s0)) / mp.sqrt(model.v0)
        s = mp.sqrt(1 + 2 * rho * zeta + zeta * zeta)
        return float(2 / sigma**2 * mp.log((s + zeta + rho) / (1 + rho)) ** 2)


def legendre_sup_mp(log_x: float, log_y: float, sigma: float, dps: int = 50) -> tuple[float, float]:
    """(sup, argmax) over theta of the square-root transform's profile
    G(theta) = theta x + ((1 + y) k(u) - 2 sqrt(y) m(u)) / a, a = sigma^2/2,
    u = a theta, k = sqrt(u) cot(sqrt u), m = sqrt(u) / sin(sqrt u), at
    x = e^{log_x}, y = e^{log_y}, in mpmath at ``dps`` digits: G in its O(1)
    terms, which the digits carry through their cancellation near the flat
    path, maximised by Newton on its numerical derivative from the leading
    order theta = 6 (2 log x - log y) / sigma^2."""
    import mpmath as mp

    with mp.workdps(dps):
        a = mp.mpf(sigma) ** 2 / 2
        x, y = mp.exp(mp.mpf(log_x)), mp.exp(mp.mpf(log_y))

        def profile(theta):
            u = a * theta
            if u > 0:
                s = mp.sqrt(u)
                k, m = s * mp.cot(s), s / mp.sin(s)
            elif u < 0:
                r = mp.sqrt(-u)
                k, m = r * mp.coth(r), r / mp.sinh(r)
            else:
                k = m = mp.mpf(1)
            return theta * x + ((1 + y) * k - 2 * mp.sqrt(y) * m) / a

        theta = mp.findroot(lambda t: mp.diff(profile, t), 6 * (2 * mp.mpf(log_x) - mp.mpf(log_y)) / sigma**2)
        return float(profile(theta)), float(theta)


def lognormal_vix_law(v0: float, sigma: float, mu: float, maturity: float) -> tuple[float, float]:
    """(forward, Black vol) of the VIX proxy eta0 sqrt(V_T) with eta = 1 and
    a lognormal variance factor of constant drift mu.  V_T = v0 exp((mu -
    sigma^2/2) T + sigma W_T) is lognormal, so sqrt(V_T) is lognormal with vol
    sigma/2 and mean sqrt(v0) exp(mu T/2 - sigma^2 T/8): a VIX call or put
    has the Black price of that forward and vol at every strike."""
    return math.sqrt(v0) * math.exp(0.5 * mu * maturity - sigma * sigma * maturity / 8.0), 0.5 * sigma
