"""Closed forms the package no longer evaluates, kept as test oracles.

The VIX solve runs over the spot level, so nothing in the package inverts
eta^2; the square-root transform works on the Moebius profile of the
cumulant Lambda, so nothing evaluates Lambda or its domain edge.  The tests
still check the solver and the transform against these independent forms.

The corner harness (:func:`corner_models`) draws the models where the
closed-form ATM coefficients cancel, for the tests that hold each
coefficient to a stated multiple of eps times its scale: the same formula
with every term in absolute value (Higham, *Accuracy and Stability of
Numerical Algorithms*, ch. 3), evaluated in mpmath on the same float inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lsv_shortmat._roots import newton_bracketed
from lsv_shortmat.model import LognormalVolOfVol, LsvModel, TanhLocalVol, TaylorLocalVol, elasticity

EPS = 2.0**-52
# relative offsets of sigma(V0) from 2 |eta1| sqrt(V0), where the ATM VIX level cancels
CORNER_DELTAS = (0.0, 1e-14, -1e-14, 1e-12, -1e-12, 1e-8, -1e-8, 1e-4, -1e-4, 0.1, -0.1)


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


def square_root_variance_law(v0: float, sigma: float, a: float, b: float, maturity: float):
    """The exact law of V_T for the square-root factor
    dV = a (b - V) dt + sigma sqrt(V) dW from V_0 = v0, as a frozen
    ``scipy.stats`` distribution: V_T = c chi'^2(d, lam), a noncentral
    chi-square of d = 4ab / sigma^2 degrees of freedom and noncentrality
    lam = e^{-aT} v0 / c, scaled by c = sigma^2 (1 - e^{-aT}) / (4a)
    (Glasserman, Monte Carlo Methods in Financial Engineering, section 3.4)."""
    from scipy import stats

    c = sigma * sigma * -math.expm1(-a * maturity) / (4.0 * a)
    return stats.ncx2(4.0 * a * b / (sigma * sigma), math.exp(-a * maturity) * v0 / c, scale=c)


def sqrt_option_price(law, strike: float, is_call: bool) -> float:
    """Undiscounted price of a call or put struck at K on sqrt(X), X drawn
    from ``law``: the integral of P(sqrt(X) > y) over [K, inf) for the call,
    of P(sqrt(X) <= y) over [0, K] for the put.  Both integrands are smooth
    where the density of X need not be: a noncentral chi-square density with
    fewer than 2 degrees of freedom is unbounded at 0."""
    from scipy import integrate

    if is_call:
        value, _ = integrate.quad(lambda y: law.sf(y * y), strike, math.inf, epsabs=0.0, epsrel=1e-11, limit=200)
    else:
        value, _ = integrate.quad(lambda y: law.cdf(y * y), 0.0, strike, epsabs=0.0, epsrel=1e-11, limit=200)
    return value


def vol_of_vol_at(family, sigma_v0: float, v0: float):
    """The spec of the family whose sigma(V0) is sigma_v0, up to rounding."""
    return family(sigma_v0) if family is LognormalVolOfVol else family(sigma_v0 * math.sqrt(v0))


def corner_models(family, seed: int, n: int, cancel_european_convexity: bool = False):
    """``n`` seeded models of the vol-of-vol ``family`` on a Taylor local vol,
    in the corners where the ATM coefficients cancel: v0 = 10^U(-3, 0.5),
    eta1 = +-10^U(-2, 0.3), sigma(V0) = 2 |eta1| sqrt(V0) (1 + delta) with delta
    from :data:`CORNER_DELTAS`, and rho in turn exactly +-1, within 10^U(-16, 0)
    of it, or uniform on [-1, 1].  With ``cancel_european_convexity`` every
    other draw takes the eta2 at which the European convexity numerator
    (2 - (3 - 4e) rho^2) sigma(V0)^2 + 4 (4 eta0 eta2 - eta1^2) V0 vanishes."""
    e = elasticity(family(1.0), 1.0)
    rng = np.random.default_rng(seed)
    for i in range(n):
        v0 = 10.0 ** rng.uniform(-3.0, 0.5)
        eta1 = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 0.3)
        delta = CORNER_DELTAS[rng.integers(len(CORNER_DELTAS))]
        sign = rng.choice((-1.0, 1.0))
        rho = (sign, sign * (1.0 - 10.0 ** rng.uniform(-16.0, 0.0)), rng.uniform(-1.0, 1.0))[i % 3]
        sigma_v0 = 2.0 * abs(eta1) * math.sqrt(v0) * (1.0 + delta)
        eta0 = rng.uniform(0.5, 1.5)
        eta2, eta3 = rng.uniform(-1.0, 1.0, size=2)
        if cancel_european_convexity and i % 2:
            eta2 = (4.0 * eta1 * eta1 * v0 - (2.0 - (3.0 - 4.0 * e) * rho * rho) * sigma_v0**2) / (16.0 * eta0 * v0)
        yield LsvModel(s0=1.0, v0=v0, rho=rho, local_vol=TaylorLocalVol(eta0, eta1, eta2, eta3),
                       vol_of_vol=vol_of_vol_at(family, sigma_v0, v0))


def vix_convexity_numerator_terms(eta0, eta1, eta2, eta3, rho, v0):
    """The lognormal VIX convexity numerator as eight (prefactor, summands)
    pairs, sum_i sigma^i prefactor_i sum(summands_i), in whatever number type
    the inputs are: an independent transcription of
    :func:`lsv_shortmat.smile.vix_convexity_numerator_coeffs` in which every
    difference is split into its summands, so that the absolute values of the
    summands give the numerator's scale."""
    e0, e1, e2, e3, r, v = eta0, eta1, eta2, eta3, rho, v0
    r2, sv = r * r, v**0.5
    return [
        (256 * e0 * e1**4 * v**3 * sv, [e1**2 * e2, -3 * e0 * e2**2, 3 * e0 * e1 * e3]),
        (128 * e0 * e1**3 * r * v**3, [15 * e0 * e1 * e3, -12 * e0 * e2**2, 5 * e1**2 * e2]),
        (16 * e1**2 * v**2 * sv, [12 * e0**2 * e1 * e3 * (9 * r2 + 1), 24 * e0**2 * e2**2,
                                  -96 * e0**2 * e2**2 * r2, 60 * e0 * e1**2 * e2 * r2, -8 * e0 * e1**2 * e2,
                                  2 * e1**4, -3 * e1**4 * r2]),
        (16 * e1 * r * v**2, [6 * e0**2 * e1 * e3 * (7 * r2 + 3), 24 * e0**2 * e2**2, -48 * e0**2 * e2**2 * r2,
                              4 * e0 * e1**2 * e2 * (8 * r2 + 3), -e1**4 * r2]),
        (4 * v * sv, [12 * e0**2 * e1 * e3 * r2 * (2 * r2 + 3), 24 * e0**2 * e2**2 * r2,
                      -36 * e0**2 * e2**2 * r2 * r2, 4 * e0 * e1**2 * e2 * (5 * r2 * r2 + 12 * r2 + 6),
                      -e1**4 * r2 * r2, 6 * e1**4 * r2, -3 * e1**4]),
        (4 * r * v, [6 * e0**2 * e3 * r2, 2 * e0 * e1 * e2 * (4 * r2 + 9), e1**3 * (r2 + 3)]),
        (sv, [12 * e0 * e2 * r2, e1**2 * (3 * r2 + 4)]),
        (1, [e1 * r]),
    ]
