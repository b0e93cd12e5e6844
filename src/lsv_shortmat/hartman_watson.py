"""Asymptotic Hartman-Watson machinery for the lognormal variance factor.

The joint short-time behaviour of (time-averaged variance, terminal variance)
for a driftless lognormal factor is controlled by the function

    I(u, v) = 8 F(v/u) + 4 (1 + v^2) / u - 4 pi^2,

where F is defined piecewise through the roots of two transcendental
equations,

    rho * sinh(x1) / x1 = 1          (0 < rho < 1, "cosh" branch),
    y1 + rho * sin(y1)  = pi         (rho >= 1,    "cos" branch).

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
    """Root and value of one branch of the piecewise function F."""

    rho: float
    branch: str  # "cosh" for rho <= 1, "cos" for rho > 1
    root: float
    f_value: float


def solve_f_branch(rho: float) -> FBranchSolution:
    """Solve the defining equation of F on the branch selected by rho."""
    if rho <= 0.0:
        raise ValueError("branch solve requires rho > 0")
    if rho <= 1.0:
        # rho sinh(x)/x = 1 has a unique positive root for rho < 1, and the
        # root 0 at rho = 1; small-x expansion gives the starting guess
        # x ~ sqrt(6 (1 - rho) / rho).
        def g(x: float) -> float:
            return rho * math.sinh(x) - x

        def gp(x: float) -> float:
            return rho * math.cosh(x) - 1.0

        guess = math.sqrt(6.0 * (1.0 - rho) / rho)
        hi = 1.0
        while g(hi) < 0.0:
            if hi >= 705.0:  # sinh overflows just beyond this
                raise ArithmeticError("cosh-branch root escaped the search range")
            hi = min(2.0 * hi, 705.0)
        # g(0) = 0 is a spurious root; start the bracket strictly inside,
        # where g is still negative.  The true root exceeds sqrt of machine
        # epsilon only when 1 - rho does, so 1e-12 stays below it whenever
        # the branch is numerically distinguishable from rho = 1.  At rho = 1
        # the guess and lo are 0, where g vanishes: the root is 0.
        lo = min(1e-12, 0.5 * guess)
        x1 = newton_bracketed(g, gp, guess, lo, hi)
        value = 0.5 * x1 * x1 - rho * math.cosh(x1) + _PI2_HALF
        return FBranchSolution(rho=rho, branch="cosh", root=x1, f_value=value)

    # rho > 1: y + rho sin(y) = pi has the spurious endpoint root y = pi
    # (sin(pi) = 0) next to the interior root.  Substituting y = pi - d turns
    # the equation into rho sin(d) = d, the trigonometric mirror of the cosh
    # branch, which is free of cancellation against pi.
    def g(d: float) -> float:
        return rho * math.sin(d) - d

    def gp(d: float) -> float:
        return rho * math.cos(d) - 1.0

    guess = math.sqrt(min(6.0 * (rho - 1.0) / rho, math.pi**2 * 0.9))
    lo = min(1e-12, 0.5 * guess) if guess > 0.0 else 1e-12
    d1 = newton_bracketed(g, gp, guess, lo, math.pi)
    y1 = math.pi - d1
    value = -0.5 * y1 * y1 + rho * math.cos(y1) + math.pi * y1
    return FBranchSolution(rho=rho, branch="cos", root=y1, f_value=value)


def hw_F(rho: float) -> float:
    """F(rho) evaluated by branch root-solving.

    The ten-term series :func:`hw_F_series` agrees with this to about
    1e-12 for |log rho| <= 0.3, but its truncation error grows like
    |log rho|^10 beyond, so the root-solve is used unconditionally.
    """
    return solve_f_branch(rho).f_value


def hw_F_derivatives(rho: float) -> tuple[float, float, float]:
    """F(rho) with its first two derivatives, from the branch root.

    Both branches are one stationary form in f(u) = cos(sqrt u) and
    g(u) = sin(sqrt u)/sqrt u (cosh and sinh for u < 0), with f' = -g/2:

        F = pi^2/2 + stat_u [-u/2 - rho f(u)],   rho g(u) = 1 at the root,

    where u = -x1^2 on the cosh branch and u = (pi - y1)^2 on the cos
    branch.  The envelope theorem gives F' = -f(u), and differentiating
    rho g(u) = 1 in rho gives F'' = -1/(2 rho^3 g'(u)).  g' cancels near
    u = 0 (rho = 1), so |u| <= 1 takes the Taylor series of
    :mod:`heston_rate`; beyond, rho g' = (rho f - 1)/(2u).  At rho = 1,
    F' = -1 and F'' = 3.
    """
    sol = solve_f_branch(rho)
    if sol.branch == "cosh":
        u, f = -sol.root * sol.root, math.cosh(sol.root)
    else:
        d = math.pi - sol.root
        u, f = d * d, math.cos(d)
    rho_g1 = rho * _horner(_SINC_D1_SERIES, -u) if abs(u) <= 1.0 else (rho * f - 1.0) / (2.0 * u)
    return sol.f_value, -f, -0.5 / (rho * rho * rho_g1)


def hw_F_series(rho: float) -> float:
    """Ten-term expansion of F in powers of log(rho) around rho = 1."""
    if rho <= 0.0:
        raise ValueError("series requires rho > 0")
    el = math.log(rho)
    out = 0.0
    for c in reversed(_F_SERIES_COEFFS):
        out = out * el + c
    return out


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
