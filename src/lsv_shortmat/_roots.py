"""The package's one scalar root solver.

Every 1-D root in the package is a sign change of a smooth function with an
analytic derivative on a known bracket: the stationary equation of the
Hartman-Watson F, Black implied volatility, and the square-root profile's
chart log x(u) = log x, whose root is the Legendre transform's maximiser.
One Newton iteration, safeguarded by the bracket (the ``rtsafe`` rule of
Press et al., *Numerical Recipes*), solves them all to machine precision.
"""

from __future__ import annotations

import math

__all__ = ["newton_bracketed"]

_MAX_ITER = 200


def newton_bracketed(f, fprime, x0: float, lo: float, hi: float) -> float:
    """Root of f in [lo, hi] by Newton iteration inside a maintained bracket.

    Each evaluation replaces the bracket end whose sign it shares.  A
    bisection step, which halves the bracket, replaces the Newton step
    whenever the latter leaves the open bracket or is longer than half the
    step before last, so a slowly converging Newton run cannot stall.  The
    iteration stops at a float fixpoint or a bracket a few ulp wide, so the
    root is resolved to machine precision.  f(lo) and f(hi) must have
    opposite signs; signs are compared directly, never via products, which
    can underflow to -0.0.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    neg_lo = flo < 0.0
    if neg_lo == (fhi < 0.0):
        raise ValueError("root not bracketed")
    x = min(max(x0, lo), hi)
    step = step_old = hi - lo
    for _ in range(_MAX_ITER):
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == neg_lo:
            lo = x
        else:
            hi = x
        dfx = fprime(x)
        x_new = x - fx / dfx if dfx != 0.0 else math.nan
        if x_new == x:
            return x  # the Newton step rounds away: a float fixpoint
        if not (lo < x_new < hi and abs(x_new - x) <= 0.5 * abs(step_old)):
            x_new = 0.5 * (lo + hi)
        step_old, step = step, x_new - x
        if hi - lo <= 4.0 * max(math.ulp(lo), math.ulp(hi)):
            return x_new
        x = x_new
    raise ArithmeticError("safeguarded Newton iteration did not converge")
