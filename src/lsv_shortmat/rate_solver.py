"""Short-maturity rate functions for European and VIX options.

Option prices decay like exp(-J(K)/T) as maturity T -> 0, with a rate
function J obtained from a two-variable extremal problem: over terminal
log-variance y and time-averaged variance z, minimise

    [ I_S - rho * Q(y) ]^2 / (2 (1 - rho^2) z)  +  H(y, z),

where I_S is a spot integral of 1/(x eta(x)), Q(y) the variance leg of the
correlation coupling, and H the variance-path rate function from
:mod:`hartman_watson` (lognormal factor) or :mod:`heston_rate` (square-root
factor).  For European options the spot integral runs to the strike; for VIX
options it runs to the level where eta^2 equals K^2 e^{-y}, which ties the
two legs together.

Closed forms cover the special cases: lognormal stochastic vol (where the
two-variable problem collapses to an explicit expression) and pure
stochastic-vol VIX options under an affine VIX^2 mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .hartman_watson import h_lognormal
from .heston_rate import h_heston
from .model import (
    ConstantLocalVol,
    LocalVolSpec,
    LognormalVolOfVol,
    LsvModel,
    SquareRootVolOfVol,
    VolOfVolSpec,
    eta_log_coeffs,
    eta_sq_inverse,
    eta_sq_range,
    vix_spot,
)

__all__ = [
    "RatePoint",
    "integral_IS",
    "vol_integral_Q",
    "european_rate",
    "vix_rate",
    "stochvol_vix_rate",
    "sabr_rate_closed",
    "rate_to_impvol",
]

# search box for (log u, y - log v0) in the two-variable minimisation
_BOX = 10.0


@dataclass(frozen=True)
class RatePoint:
    """Rate-function value at one strike with minimiser and diagnostics."""

    strike: float
    rate: float
    minimizer_y: float
    minimizer_z: float
    iterations: int
    converged: bool
    boundary_hit: bool = False


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def integral_IS(spec: LocalVolSpec, s0: float, z: float) -> float:
    """Spot integral from s0 to s0*z of dx / (x eta(x)).

    In log space this is the integral of 1/eta over k in [0, log z], which
    the spec evaluates; the sign follows the orientation (negative for
    z < 1).  The tanh spec uses the closed form
    [f0 L - f1 log(cosh L + tau sinh L)] / (f0^2 - f1^2), L = log z, with
    tau = (f0 tanh(-x0) + f1)/(f0 + f1 tanh(-x0)); the log is taken through
    log1p for |L| < 1 (no cancellation near the money) and as
    |L| + log(...) beyond (no overflow in the wings).  The constant spec
    gives log z, the Taylor spec adaptive Gauss-Legendre quadrature.
    """
    if z <= 0.0:
        raise ValueError("moneyness ratio must be positive")
    return spec.inv_eta_integral(math.log(z))


def vol_integral_Q(spec: VolOfVolSpec, v0: float, y: float) -> float:
    """Variance-leg integral from v0 to e^y of dx / (sqrt(x) sigma(x)).

    Closed form for both supported factors: 2 (e^{y/2} - sqrt(v0)) / sigma
    for the lognormal factor and (e^y - v0) / sigma for the square-root one.
    """
    if v0 <= 0.0:
        raise ValueError("v0 must be positive")
    if isinstance(spec, LognormalVolOfVol):
        return 2.0 * (math.exp(0.5 * y) - math.sqrt(v0)) / spec.sigma
    if isinstance(spec, SquareRootVolOfVol):
        return (math.exp(y) - v0) / spec.sigma
    raise ValueError(f"unsupported vol-of-vol spec {spec!r}")


def _h_func(spec: VolOfVolSpec, v0: float) -> Callable[[float, float], float]:
    if isinstance(spec, LognormalVolOfVol):
        return lambda y, z: h_lognormal(y, z, v0, spec.sigma)
    if isinstance(spec, SquareRootVolOfVol):
        return lambda y, z: h_heston(y, z, v0, spec.sigma)
    raise ValueError(f"no variance-path rate function for {spec!r}")


def rate_to_impvol(rate: float, log_moneyness: float) -> float:
    """Asymptotic implied vol |k| / sqrt(2 J) from a rate-function value."""
    if rate <= 0.0:
        raise ValueError("rate must be positive away from the money")
    if log_moneyness == 0.0:
        raise ValueError("log-moneyness must be nonzero; ATM level comes from the expansion")
    return abs(log_moneyness) / math.sqrt(2.0 * rate)


# ---------------------------------------------------------------------------
# two-variable minimisation
# ---------------------------------------------------------------------------


def _minimize_2d(objective, starts, y_bounds=None):
    """Nelder-Mead from each start, then a guarded Newton polish.

    Variables are p = (log u, w) with u = z/v0 and w = y - log v0.  Returns
    (p, value, iterations, converged, boundary_hit).
    """

    def boxed(p):
        return max(abs(p[0]), abs(p[1])) <= _BOX

    def obj(p):
        if not boxed(p):
            return math.inf
        if y_bounds is not None and not (y_bounds[0] < p[1] < y_bounds[1]):
            return math.inf
        return objective(p[0], p[1])

    best_p, best_v, iters = None, math.inf, 0
    for p0 in starts:
        p0 = np.asarray(p0, dtype=float)
        if not math.isfinite(obj(p0)):
            continue
        res = minimize(obj, p0, method="Nelder-Mead",
                       options=dict(xatol=1e-11, fatol=1e-15, maxiter=4000, maxfev=4000))
        iters += res.nit
        if res.fun < best_v:
            best_v, best_p = float(res.fun), np.asarray(res.x)
    if best_p is None:
        raise RuntimeError("no feasible starting point for the rate minimisation")

    # coordinate Newton polish with shrinking finite-difference steps
    p, v = best_p, best_v
    h = 1e-5
    for _ in range(25):
        g = np.zeros(2)
        hess = np.zeros(2)
        usable = True
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            vp, vm = obj(p + e), obj(p - e)
            if not (math.isfinite(vp) and math.isfinite(vm)):
                usable = False
                break
            g[i] = (vp - vm) / (2 * h)
            hess[i] = (vp - 2 * v + vm) / (h * h)
        if not usable:
            break
        moved = False
        for i in range(2):
            if hess[i] > 0.0:
                step = -g[i] / hess[i]
                cand = p.copy()
                cand[i] += step
                vc = obj(cand)
                if vc < v:
                    p, v = cand, vc
                    moved = True
        if not moved:
            h *= 0.1
            if h < 1e-9:
                break
    boundary_hit = bool(max(abs(p[0]), abs(p[1])) > _BOX - 1e-6)
    converged = math.isfinite(v)
    return p, v, iters, converged, boundary_hit


def _lognormal_warm_starts(model: LsvModel, k: float, vix_flavour: bool) -> list:
    """Minimiser expansions in log-moneyness used as warm starts."""
    starts = [np.zeros(2)]
    if not isinstance(model.vol_of_vol, LognormalVolOfVol):
        return starts
    sigma = model.vol_of_vol.sigma
    sv0 = math.sqrt(model.v0)
    coeffs = eta_log_coeffs(model.local_vol, 1)
    eta0 = coeffs[0]
    eta1 = coeffs[1] if len(coeffs) > 1 else 0.0
    if vix_flavour:
        d = sigma + 2.0 * model.rho * eta1 * sv0
        a1 = sigma * d / (d * d + 2.0 * (1.0 - model.rho**2) * eta1**2 * model.v0)
    else:
        a1 = model.rho * sigma / (2.0 * eta0 * sv0)
    # log u* = a1 k; log v* = a1 k with w = y - log v0 = 2 log v*
    starts.insert(0, np.array([a1 * k, 2.0 * a1 * k]))
    return starts


def european_rate(model: LsvModel, strike: float, method: str = "auto") -> RatePoint:
    """Rate function of an out-of-the-money European option.

    method:
      * ``"auto"``  - dedicated one-dimensional reduction when rho = 0,
        two-dimensional minimisation otherwise;
      * ``"2d"``    - force the two-dimensional solver;
      * ``"split"`` - force the rho = 0 reduction (requires rho = 0).
    """
    if strike <= 0.0:
        raise ValueError("strike must be positive")
    if abs(model.rho) >= 1.0:
        raise ValueError("|rho| = 1 is degenerate here; use the closed forms")
    k = math.log(strike / model.s0)
    if k == 0.0:
        return RatePoint(strike, 0.0, math.log(model.v0), model.v0, 0, True)
    i_s = integral_IS(model.local_vol, model.s0, strike / model.s0)
    h = _h_func(model.vol_of_vol, model.v0)
    rho = model.rho
    log_v0 = math.log(model.v0)

    if method not in ("auto", "2d", "split"):
        raise ValueError("method must be 'auto', '2d' or 'split'")
    if method == "split" and rho != 0.0:
        raise ValueError("the split method applies only to rho = 0")

    if rho == 0.0 and method in ("auto", "split"):
        return _european_rate_uncorrelated(model, strike, i_s, h, log_v0)

    one_m = 1.0 - rho * rho

    def objective(log_u: float, w: float) -> float:
        z = model.v0 * math.exp(log_u)
        y = log_v0 + w
        q = vol_integral_Q(model.vol_of_vol, model.v0, y)
        num = i_s - rho * q
        return num * num / (2.0 * one_m * z) + h(y, z)

    starts = _lognormal_warm_starts(model, k, vix_flavour=False)
    p, v, iters, conv, bhit = _minimize_2d(objective, starts)
    return RatePoint(strike, v, log_v0 + p[1], model.v0 * math.exp(p[0]), iters, conv, bhit)


def _expanding_scalar_min(f, half_width: float = 1.5, xatol: float = 1e-10):
    """Bounded scalar minimisation on [-w, w], doubling w while the minimiser
    presses against an edge (capped at the global search box)."""
    w = half_width
    while True:
        res = minimize_scalar(f, bounds=(-w, w), method="bounded",
                              options=dict(xatol=xatol))
        x = float(res.x)
        at_edge = w - abs(x) < 0.02 * w
        if not at_edge or w >= _BOX:
            return float(res.fun), x, int(res.nfev), bool(at_edge and w >= _BOX)
        w = min(2.0 * w, _BOX)


def _european_rate_uncorrelated(model, strike, i_s, h, log_v0) -> RatePoint:
    """rho = 0: inner 1D minimisation over y nested in an outer one over z."""

    def h_min_y(log_u: float) -> tuple[float, float, bool]:
        z = model.v0 * math.exp(log_u)
        fun, w, _, edge = _expanding_scalar_min(lambda w_: h(log_v0 + w_, z))
        return fun, w, edge

    def outer(log_u: float) -> float:
        z = model.v0 * math.exp(log_u)
        return i_s * i_s / (2.0 * z) + h_min_y(log_u)[0]

    fun, log_u, nfev, outer_edge = _expanding_scalar_min(outer, xatol=1e-11)
    _, w_star, inner_edge = h_min_y(log_u)
    return RatePoint(strike, fun, log_v0 + w_star,
                     model.v0 * math.exp(log_u), nfev, True, outer_edge or inner_edge)


def vix_rate(model: LsvModel, strike: float) -> RatePoint:
    """Rate function of an out-of-the-money VIX option.

    For a constant local-vol spec (pure stochastic volatility) the problem
    collapses to the explicit stochastic-vol rate with the identity VIX^2
    mapping.  Otherwise eta must be strictly monotone so that the spot level
    implied by the strike-variance constraint is well defined; the search in
    y is restricted to keep K^2 e^{-y} inside the range of eta^2.
    """
    if strike <= 0.0:
        raise ValueError("strike must be positive")
    if abs(model.rho) >= 1.0:
        raise ValueError("|rho| = 1 is degenerate here; use the closed forms")
    f0 = vix_spot(model)
    x = math.log(strike / f0)
    if x == 0.0:
        return RatePoint(strike, 0.0, math.log(model.v0), model.v0, 0, True)
    if isinstance(model.local_vol, ConstantLocalVol):
        rate = stochvol_vix_rate(model.vol_of_vol, model.v0, strike)
        return RatePoint(strike, rate, 2.0 * math.log(strike), model.v0, 0, True)

    h = _h_func(model.vol_of_vol, model.v0)
    rho = model.rho
    one_m = 1.0 - rho * rho
    log_v0 = math.log(model.v0)
    w_lo, w_hi = eta_sq_range(model.local_vol)
    k2 = strike * strike
    # eta^2(s0 zeta) = K^2 e^{-y} solvable iff y in (log(K^2/w_hi), log(K^2/w_lo))
    pad = 1e-12
    y_lo = math.log(k2 / w_hi) + pad
    y_hi = math.log(k2 / w_lo) - pad
    if y_lo >= y_hi:
        raise ValueError("strike-variance constraint has empty feasible range")

    def objective(log_u: float, w: float) -> float:
        z = model.v0 * math.exp(log_u)
        y = log_v0 + w
        s_star = eta_sq_inverse(model.local_vol, k2 * math.exp(-y), model.s0)
        i_s = integral_IS(model.local_vol, model.s0, s_star / model.s0)
        q = vol_integral_Q(model.vol_of_vol, model.v0, y)
        num = i_s - rho * q
        return num * num / (2.0 * one_m * z) + h(y, z)

    starts = _lognormal_warm_starts(model, x, vix_flavour=True)
    # keep warm starts feasible
    feasible = []
    for p0 in starts:
        w = min(max(p0[1], y_lo - log_v0 + 1e-9), y_hi - log_v0 - 1e-9)
        feasible.append(np.array([p0[0], w]))
    p, v, iters, conv, bhit = _minimize_2d(objective, feasible,
                                           y_bounds=(y_lo - log_v0, y_hi - log_v0))
    near_constraint = p[1] < y_lo - log_v0 + 1e-6 or p[1] > y_hi - log_v0 - 1e-6
    return RatePoint(strike, v, log_v0 + p[1], model.v0 * math.exp(p[0]), iters,
                     conv, bhit or bool(near_constraint))


def stochvol_vix_rate(spec: VolOfVolSpec, v0: float, strike: float, mapping=None) -> float:
    """VIX rate in pure stochastic-vol models with VIX^2 = alpha V_T + beta.

    ``mapping`` is any object with ``alpha``/``beta`` attributes (see
    :class:`lsv_shortmat.smile.VixMapping`); None means the identity mapping.
    J = (1/2) (integral_{v0}^{F^{-1}(K^2)} dx / (x sigma(x)))^2 evaluated in
    closed form: lognormal gives log^2(F^{-1}(K^2)/v0) / (2 sigma^2) and
    square-root gives 2 (sqrt(F^{-1}(K^2)) - sqrt(v0))^2 / sigma^2.
    """
    alpha, beta = (1.0, 0.0) if mapping is None else (mapping.alpha, mapping.beta)
    if strike <= 0.0 or v0 <= 0.0:
        raise ValueError("strike and v0 must be positive")
    if alpha <= 0.0:
        raise ValueError("mapping slope alpha must be positive")
    k2 = strike * strike
    if k2 <= beta:
        raise ValueError(f"strike^2 = {k2} not above the mapping floor beta = {beta}")
    v_target = (k2 - beta) / alpha
    sigma = spec.sigma
    if isinstance(spec, LognormalVolOfVol):
        return math.log(v_target / v0) ** 2 / (2.0 * sigma * sigma)
    if isinstance(spec, SquareRootVolOfVol):
        return 2.0 * (math.sqrt(v_target) - math.sqrt(v0)) ** 2 / (sigma * sigma)
    raise ValueError(f"unsupported vol-of-vol spec {spec!r}")


def sabr_rate_closed(model: LsvModel, strike: float) -> float:
    """Closed-form European rate for lognormal stochastic vol (eta = 1).

    With zeta = (sigma/2) log(K/S0) / sqrt(V0),

        J(K) = (2 / sigma^2) * log^2( (sqrt(1 + 2 rho zeta + zeta^2)
                                       + zeta + rho) / (1 + rho) ),

    which matches the two-variable minimisation to solver precision and
    reproduces the classical lognormal-SABR smile via
    :func:`rate_to_impvol`.
    """
    if not isinstance(model.vol_of_vol, LognormalVolOfVol):
        raise ValueError("closed form requires lognormal vol-of-vol")
    if not isinstance(model.local_vol, ConstantLocalVol):
        raise ValueError("closed form requires constant local vol")
    if abs(model.rho) >= 1.0:
        raise ValueError("|rho| = 1 not supported")
    sigma = model.vol_of_vol.sigma
    zeta = (sigma / 2.0) * math.log(strike / model.s0) / math.sqrt(model.v0)
    rho = model.rho
    core = math.log((math.sqrt(1.0 + 2.0 * rho * zeta + zeta * zeta) + zeta + rho) / (1.0 + rho))
    return 2.0 / (sigma * sigma) * core * core
