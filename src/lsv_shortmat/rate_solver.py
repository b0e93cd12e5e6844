"""Short-maturity rate functions for European and VIX options.

Option prices decay like exp(-J(K)/T) as maturity T -> 0, with a rate
function J obtained from a two-variable extremal problem: over terminal
log-variance y and time-averaged variance z, minimise

    [ I_S - rho * Q(y) ]^2 / (2 (1 - rho^2) z)  +  H(y, z),

where I_S is a spot integral of 1/(x eta(x)), Q(y) the variance leg of the
correlation coupling, and H the variance-path rate function from
:mod:`hartman_watson` (lognormal factor) or :mod:`heston_rate` (square-root
factor).  For European options the spot integral runs to the strike and y
is free.  For VIX options the terminal spot and variance lie on the curve
eta(S_T)^2 V_T = K^2; the spot log-moneyness k parametrises it for every
positive eta, monotone or not, with y = log(K^2 / eta(k)^2) and I_S the
integral up to k.

One solver finds the minimum for both products and both factors: a 2x2
trust-region Newton method on (log u, s), u = z/v0, with the exact gradient
and Hessian of the objective; s is w = y - log v0 for European options and
k for VIX options.  The local-vol spec supplies eta, eta' and eta'' for the
VIX curve, and the vol-of-vol spec supplies Q and H with their derivatives
(see :mod:`model`) at its own iterate t in place of log u, with the chart
that maps t to log u: t is log u itself for the lognormal factor and the
Legendre maximiser u = a theta for the square-root one, which then gives H
with no nested transform (:func:`heston_rate.profile_rate`).  The trust
region works in (log u, s) and moves the iterate by the chart.  Both
factors share the objective's quadratic model at the flat path p = 0, and
its minimiser is the start (:func:`_start`).
``converged`` certifies a positive-definite Hessian with a Newton decrement
below the objective's rounding error or 1e-12 of its value
(:func:`_minimize`); at |rho| = 1 no point is certified (:func:`_solve`).

Closed forms cover the special cases: lognormal stochastic vol (where the
two-variable problem collapses to an explicit expression) and VIX options
under a constant eta or an affine VIX^2 mapping, where the vol-of-vol spec
gives the rate (``variance_rate``) at the variance the strike pins (:func:`vix_log_variance`).
"""

from __future__ import annotations

import math

from ._record import Record
from .model import (
    LocalVolSpec,
    LsvModel,
    VolOfVolSpec,
    elasticity,
    eta_log_coeffs,
    vix_spot,
)

__all__ = ["RatePoint", "integral_IS", "european_rate", "vix_rate", "vix_log_variance", "stochvol_vix_rate",
           "sabr_rate_closed", "rate_to_impvol"]


# Names of retired layers that the benchmark tracer (perfbench/tracing.py)
# still reads and rebinds here; nothing calls them, so they resolve to None.
_TRACED_RETIRED = ("eta_sq_inverse", "h_heston", "h_lognormal", "minimize", "minimize_scalar")


def __getattr__(name):
    if name in _TRACED_RETIRED:
        return None
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# search box for (log u, s) and for w = y - log v0 in the two-variable
# minimisation
_BOX = 10.0
# a step covers at most this share of the distance to the search region's edge
_EDGE_FRACTION = 0.9
# the first trust radius, and the longest distance from the flat path to a start
_RADIUS0 = 1.0
_MAX_EVALS = 60
_EPS = 2.0**-52


class RatePoint(Record):
    """Rate-function value at one strike with minimiser and diagnostics;
    ``iterations`` counts objective evaluations."""

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
    the spec evaluates (``inv_eta_integral``); the sign follows the
    orientation (negative for z < 1).
    """
    if z <= 0.0:
        raise ValueError("moneyness ratio must be positive")
    return spec.inv_eta_integral(math.log(z))


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


def _rate_objective(model: LsvModel, leg):
    """The rate objective at the iterate (t, s), in p = (log u, s), u = z/v0.

    ``leg(s)`` returns (w, w', w'', I_S, I_S', I_S''): w = y - log v0 and
    the spot integral with their first two s-derivatives, or None where s
    is outside the leg's domain.  The vol-of-vol spec's ``path_rate(t, w,
    v0)`` gives H with its derivatives in (log u, w), each to its own
    relative precision, and its chart: the log u its iterate t maps to
    (t itself for a lognormal factor, the Legendre maximiser for a
    square-root one) with d log u/dt and d log u/dw.  With
    N = I_S - rho Q(w) and T = N^2 e^{-log u} / (2 (1 - rho^2) v0), the
    objective is T + H; the chain rule through w(s) gives its derivatives
    from those of N.  The returned function, ``evaluate(t, s)`` or, at the
    spec's iterate near a given log u (``path_iterate``),
    ``evaluate(None, s, log_u)``, gives (value, rounding error, gradient,
    Hessian as (h_uu, h_us, h_ss), (t, log u, d log u/dt, d log u/ds)), or
    None when s is outside the leg's domain, w or log u outside the search
    box, or t outside the spec's domain.
    """
    vol = model.vol_of_vol
    v0, rho = model.v0, model.rho
    c = 0.5 / ((1.0 - rho * rho) * v0)

    def evaluate(t: float, s: float, at_log_u: float | None = None):
        spot = leg(s)
        if spot is None or not abs(spot[0]) <= _BOX:
            return None
        w, w1, w2, i_s, i_s1, i_s2 = spot
        if at_log_u is not None:
            t = vol.path_iterate(at_log_u, w)
        h = vol.path_rate(t, w, v0)
        if h is None:
            return None
        h_val, h_noise, (h_u, h_w), (h_uu, h_uw, h_ww), (log_u, log_u_t, log_u_w) = h
        if not abs(log_u) <= _BOX:
            return None
        q, q1, q2 = vol.variance_leg(w, v0)
        n, n1, n2 = i_s - rho * q, i_s1 - rho * (q1 * w1), i_s2 - rho * (q2 * w1 * w1 + q1 * w2)
        e = c * math.exp(-log_u)
        big_t = e * n * n
        t_s = 2.0 * e * n * n1
        noise = 4.0 * _EPS * e * (abs(i_s) + abs(rho * q)) ** 2 + h_noise
        return (big_t + h_val, noise, (h_u - big_t, h_w * w1 + t_s),
                (h_uu + big_t, h_uw * w1 - t_s, h_ww * w1 * w1 + h_w * w2 + 2.0 * e * (n1 * n1 + n * n2)),
                (t, log_u, log_u_t, log_u_w * w1))

    return evaluate


def _trust_step(g, h, radius: float):
    """Exact minimiser of the model g.s + s.H.s/2 over |s| <= radius.

    H = (h00, h01, h11) is symmetric, possibly indefinite.  In its
    eigenbasis the step for a shift lambda >= max(0, -lambda_min) has
    coordinates -a_i / (lambda_i + lambda), a being the gradient in that
    basis.  The Newton step (lambda = 0) is taken when H is positive
    definite and the step fits; otherwise Newton iteration on
    1/|s(lambda)| - 1/radius, concave and increasing in lambda, reaches the
    boundary solution from the left (More and Sorensen).  In the hard case,
    where the gradient has no component along the lowest eigenvector, the
    step is filled up to the radius along that vector.

    Returns (step, predicted decrease).
    """
    h00, h01, h11 = h
    mean = 0.5 * (h00 + h11)
    dev = math.hypot(0.5 * (h00 - h11), h01)
    lam = (mean + dev, mean - dev)
    angle = 0.5 * math.atan2(2.0 * h01, h00 - h11)
    co, si = math.cos(angle), math.sin(angle)
    a = (co * g[0] + si * g[1], co * g[1] - si * g[0])

    def coords(shift: float):
        # a coordinate whose shifted eigenvalue is not positive has no
        # gradient to resolve: the hard case
        return [-ai / (li + shift) if li + shift > 0.0 else 0.0 for ai, li in zip(a, lam)]

    b = coords(0.0)
    if lam[1] <= 0.0 or math.hypot(*b) > radius:
        # the lower coordinate alone reaches the radius at this shift, so
        # the boundary solution lies at or to the right of it
        shift = max(0.0, -lam[1] + abs(a[1]) / radius)
        b = coords(shift)
        norm = math.hypot(*b)
        if norm < radius and lam[1] + shift <= 0.0:
            b[1] = math.copysign(math.sqrt(radius * radius - norm * norm), -a[1])
        else:
            for _ in range(50):
                if abs(norm - radius) <= 1e-12 * radius:
                    break
                slope = sum(bi * bi / (li + shift) for bi, li in zip(b, lam) if bi) / norm**3
                shift += (norm - radius) / (radius * norm * slope)
                b = coords(shift)
                norm = math.hypot(*b)
    pred = -sum(ai * bi + 0.5 * li * bi * bi for ai, bi, li in zip(a, b, lam))
    return (co * b[0] - si * b[1], si * b[0] + co * b[1]), pred


def _minimize(evaluate, start):
    """Trust-region Newton minimisation of ``evaluate`` over p = (log u, s).

    |log u|, |s| <= _BOX; the search starts from ``start`` (:func:`_start`,
    within _RADIUS0 of the flat path) with the trust radius _RADIUS0, and
    the step radius is capped at 0.9 times the distance to the box's edge.
    ``evaluate`` runs at the spec's iterate (t, s), and a step moves t by
    the chart of :func:`_rate_objective` to first order,
    t += (delta log u - d log u/ds delta s) / (d log u/dt): exactly for the
    lognormal factor, whose chart is the identity, and for the square-root
    one to where the ratio test judges the landing point, which
    ``evaluate`` rejects (None) outside the box.  A step is accepted when the objective
    falls by at least a tenth of the model's prediction, allowing for
    rounding; the radius shrinks to a quarter of a poor step, or of a step
    to a point where the objective is undefined, and doubles after a good
    step that reached it.  The solve stops, converged, at the first point
    with a positive-definite Hessian whose Newton decrement g' H^-1 g (the
    gradient scaled by the inverse curvature: twice the decrease a Newton
    step predicts) is below the objective's rounding error or 1e-12 of its
    value; it returns the quadratic model's minimum, one Newton step on,
    exact to third order in that step.  It also stops, not converged, after
    _MAX_EVALS evaluations or where the start is undefined.

    Returns (p, value, evaluations, converged, boundary_hit).
    """

    def margin(p) -> float:
        return _BOX - max(abs(p[0]), abs(p[1]))

    s, cur = start[1], evaluate(None, start[1], start[0])
    evals = 1
    if cur is None:
        return start, math.nan, evals, False, False
    radius = _RADIUS0
    while True:
        value, noise, g, h, (t, log_u, log_u_t, log_u_s) = cur
        p = (log_u, s)
        det = h[0] * h[2] - h[1] * h[1]
        if h[0] > 0.0 and det > 0.0:
            newton = ((h[1] * g[1] - h[2] * g[0]) / det, (h[1] * g[0] - h[0] * g[1]) / det)
            decrement = -(g[0] * newton[0] + g[1] * newton[1])
            if decrement <= max(noise, 1e-12 * value):
                return ((p[0] + newton[0], p[1] + newton[1]), value - 0.5 * decrement, evals, True,
                        margin(p) < 1e-6)
        if evals >= _MAX_EVALS:
            break
        reach = min(radius, _EDGE_FRACTION * margin(p))
        if not reach > 0.0:
            break
        step, pred = _trust_step(g, h, reach)
        if not pred > 0.0:
            break
        # the iterate of the step, to first order through the chart
        cand = (t + (step[0] - log_u_s * step[1]) / log_u_t, s + step[1])
        trial = evaluate(*cand)
        evals += 1
        ratio = -math.inf if trial is None else (value - trial[0] + noise + trial[1]) / pred
        length = math.hypot(*step)
        if ratio < 0.25:
            radius = 0.25 * length
        elif ratio > 0.75 and length >= 0.99 * reach:
            radius = max(radius, 2.0 * length)
        if ratio >= 0.1:
            s, cur = cand[1], trial
    return p, cur[0], evals, False, margin(p) < 1e-6


def _start(model: LsvModel, leg) -> tuple[float, float]:
    """The minimiser of the objective's quadratic model at the flat path
    p = 0, brought back to distance _RADIUS0 when it lies further.  There H
    has the Hessian (12, -6, 4)/sigma(V0)^2 in (log u, w) for either factor,
    so log u = w/2 and H = (w/sigma(V0))^2/2 at the minimum over log u.
    With Q' = q and the leg linear in s, w = w0 + w1 s and N = a + b s, and
    kappa N^2 + w^2 (kappa = sigma(V0)^2 / ((1 - rho^2) v0)) has its minimum
    over s at a denominator kappa b^2 + w1^2 > 0: w1 = 0 leaves b = 1/eta."""
    w0, w1, _, i0, i1, _ = leg(0.0)
    rho, v0 = model.rho, model.v0
    sigma = model.vol_of_vol.sigma_at(v0)
    q = math.sqrt(v0) / sigma
    a, b = i0 - rho * q * w0, i1 - rho * q * w1
    kappa = sigma * sigma / ((1.0 - rho * rho) * v0)
    s = -(kappa * a * b + w0 * w1) / (kappa * b * b + w1 * w1)
    p = (0.5 * (w0 + w1 * s), s)
    length = math.hypot(*p)
    return p if length <= _RADIUS0 else (p[0] * _RADIUS0 / length, s * _RADIUS0 / length)


def _solve(model: LsvModel, strike: float, reference: float, make_leg, exact=None) -> RatePoint:
    """The rate point of :func:`european_rate` and :func:`vix_rate`: rate 0
    at the money (strike = reference), ``exact()`` where the product has a
    closed form, an uncertified nan point at |rho| = 1, where the objective
    divides by 1 - rho^2, else the minimum over the leg ``make_leg()`` builds."""
    if strike <= 0.0:
        raise ValueError("strike must be positive")
    if math.log(strike / reference) == 0.0:
        return RatePoint(strike, 0.0, math.log(model.v0), model.v0, 0, True)
    if exact is not None:
        return exact()
    if abs(model.rho) >= 1.0:
        return RatePoint(strike, math.nan, math.nan, math.nan, 0, False)
    leg = make_leg()
    p, value, evals, converged, boundary_hit = _minimize(_rate_objective(model, leg), _start(model, leg))
    spot = leg(p[1])
    y = math.log(model.v0) + spot[0] if spot else math.nan
    return RatePoint(strike, value, y, model.v0 * math.exp(p[0]), evals, converged, boundary_hit)


def european_rate(model: LsvModel, strike: float) -> RatePoint:
    """Rate function of an out-of-the-money European option."""

    def make_leg():
        i_s = integral_IS(model.local_vol, model.s0, strike / model.s0)
        return lambda w: (w, 1.0, 0.0, i_s, 0.0, 0.0)

    return _solve(model, strike, model.s0, make_leg)


def _vix_leg(model: LsvModel, strike: float):
    """The VIX constraint curve eta(k)^2 V_T = K^2 over the spot level k:
    w = log(K^2 / (v0 eta^2)) = 2 log(K / VIX0) - 2 log1p((eta - eta0)/eta0),
    w' = -2 eta'/eta and w'' = 2 (eta'/eta)^2 - 2 eta''/eta; I_S is the
    integral of 1/eta up to k, I_S' = 1/eta and I_S'' = -eta'/eta^2; None
    where eta(k) <= 0.  For |k| <= 0.01, where eta - eta0 would cancel to an
    error of eps in w = O(k), it is the two-point Taylor rule on eta' (eta',
    eta'', eta''' at 0 and k), exact to O(k^7)."""
    spec = model.local_vol
    two_log_m = 2.0 * math.log(strike / vix_spot(model))
    eta0, a1, a2, a3 = spec.eta_derivatives(0.0)

    def leg(k: float):
        eta, eta1, eta2, eta3 = spec.eta_derivatives(k)
        if not eta > 0.0:
            return None
        d_eta = (k * (0.5 * (a1 + eta1) + k * (0.1 * (a2 - eta2) + k * (a3 + eta3) / 120.0)) if abs(k) <= 0.01
                 else eta - eta0)
        r1 = eta1 / eta
        return (two_log_m - 2.0 * math.log1p(d_eta / eta0), -2.0 * r1, 2.0 * (r1 * r1 - eta2 / eta),
                spec.inv_eta_integral(k), 1.0 / eta, -r1 / eta)

    return leg


def vix_rate(model: LsvModel, strike: float) -> RatePoint:
    """Rate function of an out-of-the-money VIX option.

    The search runs over the spot level k on the constraint curve
    eta(k)^2 V_T = K^2, so eta need only be positive there, not monotone;
    where eta(k) <= 0 the objective is undefined and the solver steps back.
    Where eta', eta'' and eta''' at the money are exactly 0 (:func:`eta_log_coeffs`),
    eta is flat at eta0 to double precision near the money (pure stochastic
    volatility when eta0 = 1): the VIX eta0 sqrt(V_T) pins the terminal variance
    (:func:`vix_log_variance`, alpha = eta0^2, beta = 0) and leaves the spot
    free, so the rate is the vol-of-vol spec's ``variance_rate``, for every rho, and the minimiser's
    time-averaged variance its ``mean_variance``.
    """
    eta0, eta1, eta2, eta3 = eta_log_coeffs(model.local_vol)
    exact = None
    if eta1 == eta2 == eta3 == 0.0:
        def exact():
            vol, spot = model.vol_of_vol, vix_spot(model)
            w = vix_log_variance(math.log(strike / spot), spot * spot, 0.0)
            return RatePoint(strike, vol.variance_rate(w, model.v0), 2.0 * math.log(strike / eta0),
                             vol.mean_variance(w, model.v0), 0, True)

    return _solve(model, strike, vix_spot(model), lambda: _vix_leg(model, strike), exact)


def vix_log_variance(z: float, alpha_v0: float, beta: float) -> float:
    """w = log(v / v0) of the variance v that VIX^2 = alpha V_T + beta pins at a
    strike K = F e^z above the floor (K^2 > beta), F^2 = alpha v0 + beta:
    2z + log1p(-beta expm1(-2z) / (alpha v0)), which does not cancel near the
    money and is exactly 2z for beta = 0."""
    return 2.0 * z if beta == 0.0 else 2.0 * z + math.log1p(-beta * math.expm1(-2.0 * z) / alpha_v0)


def stochvol_vix_rate(spec: VolOfVolSpec, v0: float, strike: float, mapping=None) -> float:
    """VIX rate in pure stochastic-vol models with VIX^2 = alpha V_T + beta.

    ``mapping`` is any object with ``alpha``/``beta`` attributes (see
    :class:`lsv_shortmat.smile.VixMapping`); None means the identity mapping.
    J is the spec's ``variance_rate`` at the variance the strike pins
    (:func:`vix_log_variance`).
    """
    alpha, beta = (1.0, 0.0) if mapping is None else (mapping.alpha, mapping.beta)
    if strike <= 0.0 or v0 <= 0.0:
        raise ValueError("strike and v0 must be positive")
    if alpha <= 0.0:
        raise ValueError("mapping slope alpha must be positive")
    if strike * strike <= beta:
        raise ValueError(f"strike^2 = {strike * strike} not above the mapping floor beta = {beta}")
    z = math.log(strike / math.sqrt(alpha * v0 + beta))
    return spec.variance_rate(vix_log_variance(z, alpha * v0, beta), v0)


def sabr_rate_closed(model: LsvModel, strike: float) -> float:
    """Closed-form European rate for lognormal stochastic vol (eta = 1).

    With zeta = (sigma/2) log(K/S0) / sqrt(V0), S = sqrt(1 + zeta (2 rho + zeta)),

        J(K) = (2 / sigma^2) * log^2( (S + zeta + rho) / (1 + rho) ),

    which matches the two-variable minimisation to solver precision and
    reproduces the classical lognormal-SABR smile via
    :func:`rate_to_impvol`; the log is log1p(zeta (S + c) / ((S + 1)(1 + rho)))
    with c = 1 + 2 rho + zeta, which does not cancel as zeta -> 0.  Nor does
    anything cancel as rho -> -1: S^2 is summed as (zeta + rho)^2 +
    (1 - rho)(1 + rho), and where c < 0 the sum S + c is taken as its
    conjugate -2 (1 + rho)(2 rho + zeta) / (S - c), whose factor 1 + rho
    cancels the denominator's.
    """
    vol, v0, rho = model.vol_of_vol, model.v0, model.rho
    # sigma(V) of elasticity 0 and eta flat at 1
    if elasticity(vol, v0) != 0.0 or eta_log_coeffs(model.local_vol) != [1.0, 0.0, 0.0, 0.0]:
        raise ValueError("closed form requires lognormal vol-of-vol and constant local vol eta = 1")
    if abs(rho) >= 1.0:
        raise ValueError("|rho| = 1 not supported")
    sigma = vol.sigma_at(v0)
    zeta = (sigma / 2.0) * math.log(strike / model.s0) / math.sqrt(v0)
    s = math.sqrt((zeta + rho) ** 2 + (1.0 - rho) * (1.0 + rho))
    c = 1.0 + 2.0 * rho + zeta
    if c < 0.0:
        core = math.log1p(-2.0 * zeta * (2.0 * rho + zeta) / ((s + 1.0) * (s - c)))
    else:
        core = math.log1p(zeta * (s + c) / ((s + 1.0) * (1.0 + rho)))
    return 2.0 / (sigma * sigma) * core * core
