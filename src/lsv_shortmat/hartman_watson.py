"""Asymptotic Hartman-Watson machinery for the lognormal variance factor.

The joint short-time behaviour of (time-averaged variance, terminal variance)
for a driftless lognormal factor is controlled by the function

    I(u, v) = 8 F(v/u) + 4 (1 + v^2) / u - 4 pi^2,

where F is a stationary value,

    F(rho) = pi^2/2 + stat_u [-u/2 - rho f(u)],   rho g(u) = 1,

with f(u) = cos(sqrt u) and g(u) = sin(sqrt u)/sqrt u (cosh and sinh of
sqrt(-u) for u < 0); the stationary u is <= 0 for rho <= 1 and > 0 beyond.
I is nonnegative and vanishes only at u = v = 1 (the constant variance path).
The variance-path rate function follows by pure rescaling, see
:func:`h_lognormal`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._roots import newton_bracketed
from .heston_rate import _SINC_D1_SERIES, _horner

__all__ = [
    "FBranchSolution",
    "solve_f_branch",
    "hw_F",
    "hw_F_derivatives",
    "hw_F_series",
    "rate_I",
    "h_lognormal",
]

_PI2_HALF = math.pi ** 2 / 2.0

# Taylor coefficients of F around rho = 1 in L = log(rho):
# F = pi^2/2 - 1 - L + L^2 + (2/15) L^3 + (19/525) L^4 + ...  Past pi^2/2
# they are exact rationals, from reverting L = -log(sinh(x)/x) in t = x^2
# and F = pi^2/2 + t/2 - x cosh(x)/sinh(x); one series serves both branches
# (t = -d^2 on the cos branch).  Ten terms leave at most 1.2e-12 on
# |L| <= 0.3.
_F_SERIES_COEFFS = (_PI2_HALF - 1.0, -1.0, 1.0, 2 / 15, 19 / 525, 22 / 2625, 4742 / 3031875,
                    43636 / 197071875, 146287 / 6897515625, 68146 / 57984609375)


@dataclass(frozen=True)
class FBranchSolution:
    """Root and value of F on the branch selected by rho: root = x1 with
    rho sinh(x1) = x1 on the "cosh" branch (rho <= 1), root = y1 with
    y1 + rho sin(y1) = pi on the "cos" branch (rho > 1)."""

    rho: float
    branch: str  # "cosh" for rho <= 1, "cos" for rho > 1
    root: float
    f_value: float


def _stationary_point(rho: float) -> tuple[float, float, float, float]:
    """(t, u, f(u), F) at the stationary point, t = sqrt|u|.

    In t the condition rho g(u) = 1 reads rho S(t) = t, with (S, f) =
    (sinh, cosh) and u = -t^2 for rho <= 1, (sin, cos) and u = t^2 beyond.
    """
    if rho <= 0.0:
        raise ValueError("branch solve requires rho > 0")
    if rho <= 1.0:
        # rho sinh(t) - t = 2/rho - rho^3/8 - t > 0 at t = 2 log(2/rho);
        # sinh overflows just beyond 705
        s, c, sign, hi, cap = math.sinh, math.cosh, -1.0, min(2.0 * math.log(2.0 / rho), 705.0), math.inf
    else:
        s, c, sign, hi, cap = math.sin, math.cos, 1.0, math.pi, 0.9 * math.pi**2
    # The guess solves rho (1 +- t^2/6) = 1, kept below pi.  t = 0 is a spurious
    # root, so the bracket starts inside: the root is about sqrt(6 |1 - rho|),
    # at least 2.5e-8 wherever rho differs from 1 in floats.  At rho = 1 the
    # guess and lo are 0, where the equation holds.
    guess = math.sqrt(min(6.0 * abs(1.0 - rho) / rho, cap))
    t = newton_bracketed(lambda x: rho * s(x) - x, lambda x: rho * c(x) - 1.0,
                         guess, min(1e-12, 0.5 * guess), hi)
    u, f = sign * t * t, c(t)
    return t, u, f, -0.5 * u - rho * f + _PI2_HALF


def solve_f_branch(rho: float) -> FBranchSolution:
    """Solve the stationary equation of F and report it on rho's branch."""
    t, _, _, value = _stationary_point(rho)
    if rho <= 1.0:
        return FBranchSolution(rho=rho, branch="cosh", root=t, f_value=value)
    return FBranchSolution(rho=rho, branch="cos", root=math.pi - t, f_value=value)


def hw_F(rho: float) -> float:
    """F(rho) evaluated by root-solving.

    The ten-term series :func:`hw_F_series` agrees with this to about
    1e-12 for |log rho| <= 0.3, but its truncation error grows like
    |log rho|^10 beyond, so the root-solve is used unconditionally.
    """
    return _stationary_point(rho)[3]


def hw_F_derivatives(rho: float) -> tuple[float, float, float]:
    """F(rho) with its first two derivatives, from the stationary point.

    With f' = -g/2, the envelope theorem gives F' = -f(u), and
    differentiating rho g(u) = 1 in rho gives F'' = -1/(2 rho^3 g'(u)).
    g' cancels near u = 0 (rho = 1), so |u| <= 1 takes the Taylor series
    of :mod:`heston_rate`; beyond, rho g' = (rho f - 1)/(2u).  At rho = 1,
    F' = -1 and F'' = 3.  g' < 0, so F'' > 0 everywhere; below rho of about
    1e-160 the denominator underflows to -0.0 and F'' is +inf.
    """
    _, u, f, value = _stationary_point(rho)
    rho_g1 = rho * _horner(_SINC_D1_SERIES, -u) if abs(u) <= 1.0 else (rho * f - 1.0) / (2.0 * u)
    den = rho * rho * rho_g1
    return value, -f, -0.5 / den if den else math.inf


def hw_F_series(rho: float) -> float:
    """Ten-term expansion of F in powers of log(rho) around rho = 1."""
    if rho <= 0.0:
        raise ValueError("series requires rho > 0")
    return _horner(_F_SERIES_COEFFS, math.log(rho))


def rate_I(u: float, v: float) -> float:
    """Joint rate function I(u, v) of (average, sqrt-terminal) variance ratios."""
    if u <= 0.0 or v <= 0.0:
        raise ValueError("rate_I requires positive arguments")
    return 8.0 * hw_F(v / u) + 4.0 * (1.0 + v * v) / u - 4.0 * math.pi ** 2


def h_lognormal(y: float, z: float, v0: float, sigma: float) -> float:
    """Variance-path rate function for lognormal vol-of-vol.

    y is terminal log-variance, z the time-averaged variance:
    H(y, z) = I(z/v0, exp(y/2)/sqrt(v0)) / (2 sigma^2).
    """
    if z <= 0.0 or v0 <= 0.0 or sigma <= 0.0:
        raise ValueError("h_lognormal requires positive z, v0, sigma")
    return rate_I(z / v0, math.exp(0.5 * y) / math.sqrt(v0)) / (2.0 * sigma * sigma)
