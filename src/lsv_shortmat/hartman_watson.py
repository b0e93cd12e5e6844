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

# Series coefficients of F around rho = 1 in powers of log(rho):
# F = pi^2/2 - 1 - L + L^2 + (2/15) L^3 + O(L^4).  Only these four terms
# are tabulated in usable form; the truncation is therefore quartic and
# the series is used as a cross-check, never as the primary evaluator.
_F_SERIES_COEFFS = (_PI2_HALF - 1.0, -1.0, 1.0, 2.0 / 15.0)


@dataclass(frozen=True)
class FBranchSolution:
    """Root and value of one branch of the piecewise function F."""

    rho: float
    branch: str  # "cosh" for rho < 1, "cos" for rho >= 1
    root: float
    f_value: float


def solve_f_branch(rho: float) -> FBranchSolution:
    """Solve the defining equation of F on the branch selected by rho."""
    if rho <= 0.0:
        raise ValueError("branch solve requires rho > 0")
    if rho == 1.0:
        return FBranchSolution(rho=rho, branch="cosh", root=0.0, f_value=_PI2_HALF - 1.0)
    if rho < 1.0:
        # rho sinh(x)/x = 1 has a unique positive root; small-x expansion
        # gives the starting guess x ~ sqrt(6 (1 - rho) / rho).
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
        # the branch is numerically distinguishable from rho = 1.
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

    The series :func:`hw_F_series` agrees with this to high accuracy near
    rho = 1 but degrades quickly with |log rho| at the quartic truncation,
    so the root-solve is used unconditionally.
    """
    return solve_f_branch(rho).f_value


# Taylor coefficients of R(t) = (q - 1)/t with q = x coth x, t = x^2 (and
# q = d cot d, t = -d^2): 4^n B_2n / (2n)! for n >= 1.  Ten terms leave a
# truncation error below 1e-16 for |t| <= 1/4; beyond, q - 1 loses at most
# a factor 13 to cancellation in closed form.
_QM1_SERIES = (1 / 3, -1 / 45, 2 / 945, -1 / 4725, 2 / 93555, -1382 / 638512875,
               4 / 18243225, -3617 / 162820783125, 87734 / 38979295480125,
               -349222 / 1531329465290625)
_QM1_SERIES_CUTOFF = 0.25


def hw_F_derivatives(rho: float) -> tuple[float, float, float]:
    """F(rho) with its first two derivatives, from the branch root.

    By the envelope theorem F'(rho) = -cosh x1 on the cosh branch and
    cos y1 on the cos branch; implicit differentiation of the branch
    equations gives F'' = sinh^2 x1 / (rho cosh x1 - 1) and
    sin^2 y1 / (1 + rho cos y1).  Both quotients are 0/0 at rho = 1, so
    they are evaluated through q = x1 coth x1 (t = x1^2) on the cosh branch
    and q = d cot d (t = -d^2, d = pi - y1) on the cos branch, where the
    branch equation gives rho = x1 / sinh x1 (d / sin d):

        rho F' = -q,   rho^2 F'' = t / (q - 1) = 1 / R(t),

    with R(t) = (q - 1)/t from its Taylor series near t = 0.  At rho = 1,
    F' = -1 and F'' = 3.
    """
    sol = solve_f_branch(rho)
    if sol.branch == "cosh":
        t = sol.root * sol.root
    else:
        d = math.pi - sol.root
        t = -d * d
    if abs(t) <= _QM1_SERIES_CUTOFF:
        ratio = 0.0
        for c in reversed(_QM1_SERIES):
            ratio = ratio * t + c
    elif t > 0.0:
        x = sol.root
        ratio = (x / math.tanh(x) - 1.0) / t
    else:
        ratio = (d / math.tan(d) - 1.0) / t
    return sol.f_value, -(1.0 + t * ratio) / rho, 1.0 / (ratio * rho * rho)


def hw_F_series(rho: float) -> float:
    """Four-term expansion of F in powers of log(rho) around rho = 1."""
    if rho <= 0.0:
        raise ValueError("series requires rho > 0")
    c0, c1, c2, c3 = _F_SERIES_COEFFS
    el = math.log(rho)
    return c0 + el * (c1 + el * (c2 + el * c3))


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
