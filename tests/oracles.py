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
