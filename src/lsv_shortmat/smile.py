"""Closed-form at-the-money smile expansions and ATM price limits.

For each vol-of-vol family the asymptotic implied-vol smile is expanded to
second order in log-moneyness,

    sigma(k) = atm + skew * k + convexity * k^2 + O(k^3),

around the money (spot S0 for European options, eta(S0) sqrt(V0) for VIX
options).  One formula per product serves both families: it reads the vol
of vol only through sigma(V0) and its elasticity e = V0 sigma'(V0)/sigma(V0)
(0 lognormal, -1/2 square-root, :func:`.model.elasticity`), so the families
differ only by e, and the family is checked and chosen by that value.  The VIX
convexity is known for the lognormal family alone: a long degree-7
polynomial in sigma whose coefficients are transcribed in
:func:`vix_convexity_numerator_coeffs`; a double-entry copy of that table
lives in the test suite to guard against transcription slips.

The ATM VIX level is written once, as a sum of squares that cannot
cancel, for the VIX expansion, its range over rho (:func:`vix_atm_bounds`)
and the VIX price limit.  The module also carries the explicit VIX smiles
of the mean-reverting lognormal and square-root stochastic-vol models, one
core through the affine mapping VIX^2 = alpha(tau) V_T + beta(tau) and the
spec's ``variance_rate``, and the square-root-of-maturity ATM price limits.
"""

from __future__ import annotations

import math
import sys

from ._record import Record
from .model import (
    LognormalVolOfVol,
    LsvModel,
    SquareRootVolOfVol,
    elasticity,
    eta_log_coeffs,
    vix_spot,
)
from .rate_solver import rate_to_impvol, vix_log_variance

__all__ = ["SmileExpansion", "VixMapping", "vix_mapping", "constant_drift_factor",
           "european_expansion_sabr_type", "vix_expansion_sabr_type", "vix_convexity_numerator_coeffs",
           "vix_atm_bounds", "european_expansion_heston_type", "vix_expansion_heston_type",
           "meanrev_lognormal_vix_smile", "heston_vix_smile", "atm_price_limit_european",
           "atm_price_limit_vix"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# the elasticity of sigma(V) (:func:`.model.elasticity`) of each family
_SABR_TYPE, _HESTON_TYPE = 0.0, -0.5


class SmileExpansion(Record):
    """ATM level, skew and convexity of an asymptotic smile.

    convexity is None where no closed form exists (VIX smile of the
    square-root family), never silently zero.
    """

    atm: float
    skew: float
    convexity: float | None

    def evaluate(self, log_moneyness: float) -> float:
        """Quadratic (or linear, if convexity is unavailable) smile value."""
        k = log_moneyness
        out = self.atm + self.skew * k
        if self.convexity is not None:
            out += self.convexity * k * k
        return out


class VixMapping(Record):
    """Affine map VIX^2 = alpha * V_T + beta induced by the variance drift."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.beta < 0.0:
            raise ValueError("beta must be nonnegative")


def constant_drift_factor(mu: float, tau: float) -> float:
    """VIX^2 scale factor (e^{mu tau} - 1)/(mu tau) of a constant-drift factor."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    x = mu * tau
    if abs(x) < 1e-12:
        return 1.0
    return math.expm1(x) / x


def vix_mapping(a: float, b: float, tau: float) -> VixMapping:
    """Mapping coefficients for mean reversion at speed a towards level b
    over an averaging window tau: alpha = (1 - e^{-a tau})/(a tau), the
    constant-drift factor at mu = -a, and beta = b (1 - alpha); a -> 0
    gives the identity mapping."""
    alpha = constant_drift_factor(-a, tau)
    return VixMapping(alpha=alpha, beta=b * (1.0 - alpha))


def _require(model: LsvModel, family: float) -> tuple[float, float]:
    """sigma(V0) and its elasticity e = V0 sigma'(V0) / sigma(V0) for a model
    of the family whose elasticity is ``family``; ValueError for another."""
    e = elasticity(model.vol_of_vol, model.v0)
    if e != family:
        raise ValueError(f"expansion requires a vol of vol of elasticity {family}, got {e}")
    return model.vol_of_vol.sigma_at(model.v0), e


def _european_expansion(model: LsvModel, family: float) -> SmileExpansion:
    sigma, e = _require(model, family)
    eta0, eta1, eta2, _ = eta_log_coeffs(model.local_vol)
    v0, rho = model.v0, model.rho
    sv0 = math.sqrt(v0)
    atm = eta0 * sv0
    skew = 0.25 * (rho * sigma + 2.0 * eta1 * sv0)
    conv = ((2.0 - (3.0 - 4.0 * e) * rho * rho) * sigma * sigma
            + 4.0 * (4.0 * eta0 * eta2 - eta1 * eta1) * v0) / (48.0 * eta0 * sv0)
    return SmileExpansion(atm=atm, skew=skew, convexity=conv)


def european_expansion_sabr_type(model: LsvModel) -> SmileExpansion:
    """European smile expansion for the lognormal vol-of-vol family."""
    return _european_expansion(model, _SABR_TYPE)


def european_expansion_heston_type(model: LsvModel) -> SmileExpansion:
    """European smile expansion for the square-root vol-of-vol family."""
    return _european_expansion(model, _HESTON_TYPE)


def vix_convexity_numerator_coeffs(eta0: float, eta1: float, eta2: float, eta3: float,
                                   rho: float, v0: float) -> list[float]:
    """Coefficients k_0..k_7 of the VIX convexity numerator sum k_i sigma^i."""
    r2 = rho * rho
    k0 = 256.0 * eta0 * eta1**4 * v0**3.5 * (eta1**2 * eta2 - 3.0 * eta0 * eta2**2 + 3.0 * eta0 * eta1 * eta3)
    k1 = 128.0 * eta0 * eta1**3 * rho * v0**3 * (15.0 * eta0 * eta1 * eta3 - 12.0 * eta0 * eta2**2 + 5.0 * eta1**2 * eta2)
    k2 = 16.0 * eta1**2 * v0**2.5 * (
        12.0 * eta0**2 * eta1 * eta3 * (9.0 * r2 + 1.0)
        + 24.0 * eta0**2 * eta2**2 * (1.0 - 4.0 * r2)
        + 4.0 * eta0 * eta1**2 * eta2 * (15.0 * r2 - 2.0)
        + eta1**4 * (2.0 - 3.0 * r2)
    )
    k3 = 16.0 * eta1 * rho * v0**2 * (
        6.0 * eta0**2 * eta1 * eta3 * (7.0 * r2 + 3.0)
        + 6.0 * eta0**2 * eta2**2 * (4.0 - 8.0 * r2)
        + 4.0 * eta0 * eta1**2 * eta2 * (8.0 * r2 + 3.0)
        - eta1**4 * r2
    )
    k4 = 4.0 * v0**1.5 * (
        12.0 * eta0**2 * eta1 * eta3 * r2 * (2.0 * r2 + 3.0)
        + 12.0 * eta0**2 * eta2**2 * r2 * (2.0 - 3.0 * r2)
        + 4.0 * eta0 * eta1**2 * eta2 * (5.0 * r2 * r2 + 12.0 * r2 + 6.0)
        - eta1**4 * (r2 * r2 - 6.0 * r2 + 3.0)
    )
    k5 = 4.0 * rho * v0 * (
        6.0 * eta0**2 * eta3 * r2
        + 2.0 * eta0 * eta1 * eta2 * (4.0 * r2 + 9.0)
        + eta1**3 * (r2 + 3.0)
    )
    k6 = math.sqrt(v0) * (12.0 * eta0 * eta2 * r2 + eta1**2 * (3.0 * r2 + 4.0))
    k7 = eta1 * rho
    return [k0, k1, k2, k3, k4, k5, k6, k7]


def _vix_atm_legs(model: LsvModel, rho: float) -> tuple[float, float, float]:
    """(A, B, sqrt(1 - rho^2)) with A = sigma/2 + eta1 rho sqrt(V0) and
    B = eta1 sqrt(V0) sqrt(1 - rho^2), the legs of the ATM VIX vol
    (1/2) sqrt(sigma^2 + 4 eta1 rho sigma sqrt(V0) + 4 eta1^2 V0) = hypot(A, B)
    of either family at correlation rho.  sigma = sigma(V0) is the vol of vol
    of dV/V at V0 (``sigma_at``): sigma for the lognormal family and
    sigma/sqrt(V0) for the square-root family.  A sum of two squares cannot
    cancel where sigma = 2 |eta1| sqrt(V0) and |rho| -> 1;
    (1 - rho)(1 + rho) keeps the digits 1 - rho^2 loses there."""
    sigma = model.vol_of_vol.sigma_at(model.v0)
    eta1 = eta_log_coeffs(model.local_vol)[1]
    sv0 = math.sqrt(model.v0)
    rho_perp = math.sqrt((1.0 - rho) * (1.0 + rho))
    return 0.5 * sigma + eta1 * rho * sv0, eta1 * sv0 * rho_perp, rho_perp


def _vix_expansion(model: LsvModel, family: float) -> SmileExpansion:
    """The VIX level and skew of either family, and the convexity from the
    numerator table of the lognormal family (None for the other)."""
    sigma, e = _require(model, family)
    eta0, eta1, eta2, eta3 = eta_log_coeffs(model.local_vol)
    v0, rho = model.v0, model.rho
    sv0 = math.sqrt(v0)
    leg_a, leg_b, rho_perp = _vix_atm_legs(model, rho)
    atm = math.hypot(leg_a, leg_b)
    d = 4.0 * atm * atm
    if d <= 0.0:  # |rho| = 1 and sigma = 2 |eta1| sqrt(V0): no level, no skew
        return SmileExpansion(0.0, math.nan, math.nan if e == 0.0 else None)
    w = (sigma * sigma * eta1
         + 2.0 * rho * sigma * sv0 * (eta1 * eta1 + 2.0 * eta0 * eta2)
         + 8.0 * eta0 * eta1 * eta2 * v0)
    # rho sigma + 2 eta1 sqrt(V0) = 2 (rho A + sqrt(1 - rho^2) B) and
    # b = sigma (sigma + 2 rho eta1 sqrt(V0)) = 2 sigma A: both factors, which
    # vanish with d, read the level's own rounded legs
    b = 2.0 * sigma * leg_a
    skew = sv0 * (rho * leg_a + rho_perp * leg_b) / d**1.5 * w + 0.5 * e * b * b / d**1.5
    conv = None
    if e == 0.0:
        coeffs = vix_convexity_numerator_coeffs(eta0, eta1, eta2, eta3, rho, v0)
        k_vix = 0.0
        for i in reversed(range(8)):
            k_vix = k_vix * sigma + coeffs[i]
        conv = sv0 / 6.0 * k_vix / d**3.5
    return SmileExpansion(atm=atm, skew=skew, convexity=conv)


def vix_expansion_sabr_type(model: LsvModel) -> SmileExpansion:
    """VIX smile expansion for the lognormal vol-of-vol family.  Its convexity
    is the true quadratic coefficient of the smile, which a quadratic fit of the
    rate-function smile matches (some widely circulated reference values for it
    carry a spurious extra factor sqrt(V0))."""
    return _vix_expansion(model, _SABR_TYPE)


def vix_expansion_heston_type(model: LsvModel) -> SmileExpansion:
    """VIX smile expansion for the square-root family; no closed-form
    convexity is available, so it is reported as None."""
    return _vix_expansion(model, _HESTON_TYPE)


def vix_atm_bounds(model: LsvModel) -> tuple[float, float]:
    """Range of the ATM VIX vol of either family as the correlation sweeps
    [-1, 1]: its square is affine in rho, so the ends are at rho = -+1."""
    return tuple(sorted(math.hypot(*_vix_atm_legs(model, rho)[:2]) for rho in (-1.0, 1.0)))


def _stochvol_vix_smile(spec, v0: float, mapping: VixMapping, strike: float) -> float:
    """Asymptotic VIX implied vol of either family under VIX^2 = alpha V_T + beta,
    forward F = sqrt(alpha v0 + beta): |z| / sqrt(2 J) in z = log(K/F), J the
    spec's ``variance_rate`` at the variance the strike pins (``vix_log_variance``),
    and sigma(V0) alpha v0 / (2 F^2) at the money.  The VIX is bounded below by
    sqrt(beta), so the vol vanishes (0) for K <= sqrt(beta).  Supported while J
    is a normal float, and nan where it is not, as in the CLI's rate column:
    for the square-root family, J ~ v0 z^2 / sigma^2 near the money asks
    v0 / sigma^2 >= 1e-275 at the strikes one ulp off F."""
    if v0 <= 0.0:
        raise ValueError("v0 must be positive")
    alpha_v0, beta = mapping.alpha * v0, mapping.beta
    if strike * strike <= beta:
        return 0.0
    f2 = alpha_v0 + beta
    z = math.log(strike / math.sqrt(f2))
    if z == 0.0:
        return 0.5 * spec.sigma_at(v0) * alpha_v0 / f2
    rate = spec.variance_rate(vix_log_variance(z, alpha_v0, beta), v0)
    # a subnormal J has lost its relative precision
    return rate_to_impvol(rate, z) if rate >= sys.float_info.min else math.nan


def meanrev_lognormal_vix_smile(a: float, b: float, sigma: float, v0: float,
                                tau: float, strike: float) -> float:
    """Asymptotic VIX implied vol in the mean-reverting lognormal model
    (:func:`_stochvol_vix_smile`, mapping :func:`vix_mapping`): away from
    the floor sigma |log(K/F)| / |log((K^2 - beta)/(alpha v0))|."""
    return _stochvol_vix_smile(LognormalVolOfVol(sigma), v0, vix_mapping(a, b, tau), strike)


def heston_vix_smile(a: float, b: float, sigma: float, v0: float,
                     tau: float, strike: float) -> float:
    """Asymptotic VIX implied vol in the mean-reverting square-root model
    (:func:`_stochvol_vix_smile`, mapping :func:`vix_mapping`): away from the
    floor (sigma/2) |log(K/F)| / |sqrt((K^2 - beta)/alpha) - sqrt(v0)|, for
    the identity mapping sigma/(2 sqrt(v0)) z/(e^z - 1)."""
    return _stochvol_vix_smile(SquareRootVolOfVol(sigma), v0, vix_mapping(a, b, tau), strike)


def atm_price_limit_european(model: LsvModel) -> float:
    """Limit of C(S0, T)/sqrt(T) as T -> 0: eta(S0) S0 sqrt(V0) / sqrt(2 pi)."""
    eta0 = eta_log_coeffs(model.local_vol)[0]
    return eta0 * model.s0 * math.sqrt(model.v0) / _SQRT_2PI


def atm_price_limit_vix(model: LsvModel) -> float:
    """Limit of the ATM VIX option price over sqrt(T) as T -> 0: the VIX
    spot eta(S0) sqrt(V0) times the ATM VIX vol over sqrt(2 pi)."""
    return vix_spot(model) * math.hypot(*_vix_atm_legs(model, model.rho)[:2]) / _SQRT_2PI
