"""Local-stochastic volatility model specification.

The asset follows  dS/S = eta(S) sqrt(V) dW + (r - q) dt  where the variance
factor V has its own diffusion (lognormal or square-root vol-of-vol) and the
two Brownian drivers are correlated with coefficient rho.  The local-volatility
function eta is parameterised either by a bounded tanh shape, by a truncated
Taylor polynomial in log-moneyness, or held constant (pure stochastic vol).

Each local-vol spec class owns its formulas, all in log-moneyness k = log(s/s0):

* ``eta(k)``                 - eta at a float or an ndarray of k;
* ``inv_eta_integral(L)``    - the integral of 1/eta over k in [0, L];
* ``eta_sq_log_inverse(w)``  - the k at which eta(k)^2 = w;
* ``eta_sq_range()``         - the open range of eta^2;
* ``log_coeffs()``           - the Taylor coefficients of eta up to the cubic.

The module-level helpers (:func:`eta_eval`, :func:`eta_log_coeffs`,
:func:`eta_sq_range`, :func:`eta_sq_inverse`) delegate to them.

All spec objects are frozen dataclasses: they validate on construction and
their methods are pure, so everything here is safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
from scipy.optimize import brentq
from scipy.special import roots_legendre

__all__ = [
    "TanhLocalVol",
    "TaylorLocalVol",
    "ConstantLocalVol",
    "LocalVolSpec",
    "ZeroDrift",
    "ConstantDrift",
    "MeanRevertingDrift",
    "DriftSpec",
    "LognormalVolOfVol",
    "SquareRootVolOfVol",
    "VolOfVolSpec",
    "LsvModel",
    "eta_eval",
    "eta_log_coeffs",
    "eta_sq_inverse",
    "eta_sq_range",
    "vix_spot",
    "check_moment_condition",
    "model_from_dict",
    "model_to_dict",
    "load_model",
]

# Log-moneyness cap for bracketing searches on eta; eta is effectively
# constant far beyond +-50 for every supported shape.
_LOG_BRACKET_CAP = 50.0

_GL_NODES, _GL_WEIGHTS = roots_legendre(16)


def _gl_panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.dot(_GL_WEIGHTS, f(mid + half * _GL_NODES)))


def _gl_adaptive(f, a: float, b: float, rel_tol: float = 1e-10, depth: int = 0) -> float:
    """Adaptive 16-point Gauss-Legendre quadrature; ``f`` takes all nodes of a
    panel at once."""
    whole = _gl_panel(f, a, b)
    mid = 0.5 * (a + b)
    split = _gl_panel(f, a, mid) + _gl_panel(f, mid, b)
    if abs(split - whole) <= rel_tol * max(abs(split), 1e-300) or depth >= 40:
        return split
    return _gl_adaptive(f, a, mid, rel_tol, depth + 1) + _gl_adaptive(f, mid, b, rel_tol, depth + 1)


def _check_eta_sq_target(w: float, w_lo: float, w_hi: float) -> None:
    if w <= 0.0:
        raise ValueError("target of eta^2 inversion must be positive")
    if not (w_lo < w < w_hi):
        raise ValueError(f"eta^2 target {w} outside attainable range ({w_lo}, {w_hi})")


@dataclass(frozen=True)
class TanhLocalVol:
    """Bounded local volatility eta(s) = f0 + f1 * tanh(log(s/s0) - x0).

    Requires f0 > |f1| so that eta stays strictly positive.  The function is
    strictly monotone in s whenever f1 != 0, which makes eta^2 invertible.
    """

    f0: float
    f1: float
    x0: float = 0.0

    def __post_init__(self) -> None:
        if not self.f0 > abs(self.f1):
            raise ValueError(f"tanh local vol requires f0 > |f1|, got f0={self.f0}, f1={self.f1}")

    def eta(self, k):
        return self.f0 + self.f1 * np.tanh(k - self.x0)

    def inv_eta_integral(self, L: float) -> float:
        """Closed form of the integral of 1/eta over [0, L].

        With u = k - x0 an antiderivative is
        [f0 u - f1 log(f0 cosh u + f1 sinh u)] / (f0^2 - f1^2), so the
        integral is [f0 L - f1 log(cosh L + tau sinh L)] / (f0^2 - f1^2) with
        tau = (f0 tanh(-x0) + f1) / (f0 + f1 tanh(-x0)), |tau| < 1.  The log
        is evaluated as log1p(2 sinh^2(L/2) + tau sinh L) for |L| < 1, which
        keeps full relative precision near the money, and as
        |L| + log(((1 + tau sgn L) + (1 - tau sgn L) e^{-2|L|}) / 2) beyond,
        which cannot overflow.
        """
        f0, f1 = self.f0, self.f1
        t = math.tanh(-self.x0)
        tau = (f0 * t + f1) / (f0 + f1 * t)
        a = abs(L)
        if a < 1.0:
            log_ratio = math.log1p(2.0 * math.sinh(0.5 * L) ** 2 + tau * math.sinh(L))
        else:
            ts = tau if L > 0.0 else -tau
            log_ratio = a + math.log(0.5 * ((1.0 + ts) + (1.0 - ts) * math.exp(-2.0 * a)))
        return (f0 * L - f1 * log_ratio) / ((f0 - f1) * (f0 + f1))

    def eta_sq_log_inverse(self, w: float) -> float:
        """Closed form k = x0 + atanh((sqrt(w) - f0) / f1) of eta(k)^2 = w;
        f1 = 0 leaves an empty range, which the range check rejects."""
        _check_eta_sq_target(w, *self.eta_sq_range())
        return self.x0 + math.atanh((math.sqrt(w) - self.f0) / self.f1)

    def eta_sq_range(self) -> tuple[float, float]:
        lo = self.f0 - abs(self.f1)
        hi = self.f0 + abs(self.f1)
        return (lo * lo, hi * hi)

    def log_coeffs(self) -> list[float]:
        """Derivatives of eta at k = 0 over n!, from those of tanh at -x0."""
        t = math.tanh(self.x0)
        sech2 = 1.0 / math.cosh(self.x0) ** 2
        return [
            self.f0 - self.f1 * t,
            self.f1 * sech2,
            self.f1 * sech2 * t,
            self.f1 * (-2.0 * sech2 ** 2 + 4.0 * t ** 2 * sech2) / 6.0,
        ]


@dataclass(frozen=True)
class TaylorLocalVol:
    """Local volatility as a cubic polynomial in log-moneyness.

    eta(s) = eta0 + eta1*k + eta2*k^2 + eta3*k^3 with k = log(s/s0).
    Intended for smile-expansion work near the money; it is not guaranteed
    positive or monotone far from s0.
    """

    eta0: float
    eta1: float = 0.0
    eta2: float = 0.0
    eta3: float = 0.0

    def __post_init__(self) -> None:
        if not self.eta0 > 0.0:
            raise ValueError(f"taylor local vol requires eta0 > 0, got {self.eta0}")

    def eta(self, k):
        return self.eta0 + k * (self.eta1 + k * (self.eta2 + k * self.eta3))

    def inv_eta_integral(self, L: float) -> float:
        """Integral of 1/eta over [0, L] by adaptive 16-point Gauss-Legendre
        panels, each evaluated in one vectorised Horner pass."""

        def f(t: np.ndarray) -> np.ndarray:
            vals = self.eta(t)
            if np.any(vals <= 0.0):
                raise ValueError("eta vanishes on the integration path")
            return 1.0 / vals

        return _gl_adaptive(f, 0.0, L)

    def _is_monotone(self) -> bool:
        # eta'(k) = eta1 + 2 eta2 k + 3 eta3 k^2 must not change sign on the
        # bracketing window.
        a, b, c = 3.0 * self.eta3, 2.0 * self.eta2, self.eta1
        if a == 0.0 and b == 0.0:
            return c != 0.0
        if a == 0.0:
            root = -c / b
            return abs(root) >= _LOG_BRACKET_CAP
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            return True
        roots = ((-b - math.sqrt(disc)) / (2.0 * a), (-b + math.sqrt(disc)) / (2.0 * a))
        return all(abs(r) >= _LOG_BRACKET_CAP for r in roots)

    def eta_sq_log_inverse(self, w: float) -> float:
        """Root of eta(k)^2 = w, bracketed by geometric expansion away from
        k = 0 (capped at +-50) and solved by Brent iteration to full
        precision; the polynomial must be monotone on that window."""
        if not self._is_monotone():
            raise ValueError("taylor local vol spec is not monotone; inversion unsupported")
        _check_eta_sq_target(w, *self.eta_sq_range())
        target = math.sqrt(w)

        def g(k: float) -> float:
            return self.eta(k) - target

        g0 = g(0.0)
        if g0 == 0.0:
            return 0.0
        # expand geometrically until the sign changes
        step = 1.0
        k_prev = 0.0
        sign0 = math.copysign(1.0, g0)
        while step <= _LOG_BRACKET_CAP:
            for k_try in (step, -step):
                if math.copysign(1.0, g(k_try)) != sign0:
                    lo, hi = sorted((math.copysign(k_prev, k_try), k_try))
                    return brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16)
            k_prev = step
            step *= 2.0
        raise ValueError("failed to bracket eta^2 inversion within the search cap")

    def eta_sq_range(self) -> tuple[float, float]:
        """Range over the capped log-moneyness window, restricted to the
        region where eta stays positive (a polynomial may cross zero; the
        inversion only ever matches eta = +sqrt(w) there)."""
        a = self.eta(-_LOG_BRACKET_CAP)
        b = self.eta(_LOG_BRACKET_CAP)
        lo_eta, hi_eta = min(a, b), max(a, b)
        if hi_eta <= 0.0:
            raise ValueError("eta is not positive over the search window")
        lo_eta = max(lo_eta, 0.0)
        return (lo_eta * lo_eta, hi_eta * hi_eta)

    def log_coeffs(self) -> list[float]:
        return [self.eta0, self.eta1, self.eta2, self.eta3]


@dataclass(frozen=True)
class ConstantLocalVol:
    """eta(s) = 1: pure stochastic volatility dynamics."""

    value: float = 1.0

    def __post_init__(self) -> None:
        if self.value != 1.0:
            raise ValueError("constant local vol is normalised to 1; scale V0 instead")

    def eta(self, k):
        return np.ones_like(k, dtype=float)[()]

    def inv_eta_integral(self, L: float) -> float:
        return L

    def eta_sq_log_inverse(self, w: float) -> float:
        """Degenerate: only w = 1 is attainable, and k = 0 is returned by
        convention."""
        if abs(w - 1.0) > 1e-12:
            raise ValueError("constant local vol attains only eta^2 = 1")
        return 0.0

    def eta_sq_range(self) -> tuple[float, float]:
        return (1.0, 1.0)

    def log_coeffs(self) -> list[float]:
        return [1.0, 0.0, 0.0, 0.0]


LocalVolSpec = Union[TanhLocalVol, TaylorLocalVol, ConstantLocalVol]


@dataclass(frozen=True)
class ZeroDrift:
    """Driftless variance factor."""


@dataclass(frozen=True)
class ConstantDrift:
    """dV/V drift equal to a constant mu (per year)."""

    mu: float


@dataclass(frozen=True)
class MeanRevertingDrift:
    """Drift mu(V) V = a (b - V): mean reversion at speed a towards level b."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError("mean-reverting drift requires a > 0 and b > 0")


DriftSpec = Union[ZeroDrift, ConstantDrift, MeanRevertingDrift]


@dataclass(frozen=True)
class LognormalVolOfVol:
    """Variance diffusion dV/V = sigma dZ + drift: lognormal (SABR-type) factor."""

    sigma: float
    drift: DriftSpec = field(default_factory=ZeroDrift)

    def __post_init__(self) -> None:
        if self.sigma <= 0.0:
            raise ValueError("vol-of-vol sigma must be positive")


@dataclass(frozen=True)
class SquareRootVolOfVol:
    """Variance diffusion dV = sigma sqrt(V) dZ + drift terms: Heston-type factor."""

    sigma: float
    drift: DriftSpec = field(default_factory=ZeroDrift)

    def __post_init__(self) -> None:
        if self.sigma <= 0.0:
            raise ValueError("vol-of-vol sigma must be positive")


VolOfVolSpec = Union[LognormalVolOfVol, SquareRootVolOfVol]


@dataclass(frozen=True)
class LsvModel:
    """Full model state: spot, spot variance, correlation, carry, and the two
    volatility specifications."""

    s0: float
    v0: float
    rho: float
    local_vol: LocalVolSpec
    vol_of_vol: VolOfVolSpec
    r: float = 0.0
    q: float = 0.0

    def __post_init__(self) -> None:
        if self.s0 <= 0.0:
            raise ValueError("s0 must be strictly positive")
        if self.v0 <= 0.0:
            raise ValueError("v0 must be strictly positive")
        if abs(self.rho) > 1.0:
            raise ValueError("rho must lie in [-1, 1]")


def eta_eval(spec: LocalVolSpec, s: float, s0: float) -> float:
    """Evaluate the local volatility function at spot s (with reference s0)."""
    if s <= 0.0:
        raise ValueError("spot must be strictly positive")
    return float(spec.eta(math.log(s / s0)))


def eta_log_coeffs(spec: LocalVolSpec, order: int = 3) -> list[float]:
    """Taylor coefficients of eta in powers of log(s/s0), up to the cubic."""
    if order not in (0, 1, 2, 3):
        raise ValueError("order must be one of 0, 1, 2, 3")
    return spec.log_coeffs()[: order + 1]


def eta_sq_range(spec: LocalVolSpec) -> tuple[float, float]:
    """Open range (w_min, w_max) attained by eta^2 over all positive spots."""
    return spec.eta_sq_range()


def eta_sq_inverse(spec: LocalVolSpec, w: float, s0: float) -> float:
    """Solve eta(s)^2 = w for s, for strictly monotone local volatility.

    Closed form for the tanh spec: s = s0 exp(x0 + atanh((sqrt(w) - f0)/f1)).
    The Taylor spec brackets the root by geometric expansion away from s0
    (capped at s0 * exp(+-50)) and solves it by Brent iteration.  The
    constant spec is degenerate: only w = 1 is attainable and s0 is returned
    by convention.
    """
    return s0 * math.exp(spec.eta_sq_log_inverse(w))


def vix_spot(model: LsvModel) -> float:
    """Zero-maturity VIX level eta(s0) * sqrt(v0)."""
    return eta_eval(model.local_vol, model.s0, model.s0) * math.sqrt(model.v0)


def check_moment_condition(rho: float, p: float) -> bool:
    """Sufficient condition for the p-th spot moment to stay bounded at short
    maturity in the pure stochastic-vol limit: rho < -sqrt((p-1)/p)."""
    if p <= 1.0:
        raise ValueError("moment exponent p must exceed 1")
    return rho < -math.sqrt((p - 1.0) / p)


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

_LOCAL_VOL_KINDS = {"tanh", "taylor_log", "constant"}
_VOL_OF_VOL_KINDS = {"lognormal", "square_root"}
_DRIFT_KINDS = {"zero", "constant", "mean_reverting"}


def _local_vol_from_dict(d: dict) -> LocalVolSpec:
    kind = d.get("kind")
    if kind == "tanh":
        return TanhLocalVol(f0=float(d["f0"]), f1=float(d["f1"]), x0=float(d.get("x0", 0.0)))
    if kind == "taylor_log":
        return TaylorLocalVol(
            eta0=float(d["eta0"]),
            eta1=float(d.get("eta1", 0.0)),
            eta2=float(d.get("eta2", 0.0)),
            eta3=float(d.get("eta3", 0.0)),
        )
    if kind == "constant":
        return ConstantLocalVol()
    raise ValueError(f"unknown local_vol kind {kind!r}; expected one of {sorted(_LOCAL_VOL_KINDS)}")


def _drift_from_dict(d: dict | None) -> DriftSpec:
    if d is None:
        return ZeroDrift()
    kind = d.get("kind", "zero")
    if kind == "zero":
        return ZeroDrift()
    if kind == "constant":
        return ConstantDrift(mu=float(d["mu"]))
    if kind == "mean_reverting":
        return MeanRevertingDrift(a=float(d["a"]), b=float(d["b"]))
    raise ValueError(f"unknown drift kind {kind!r}; expected one of {sorted(_DRIFT_KINDS)}")


def _vol_of_vol_from_dict(d: dict) -> VolOfVolSpec:
    kind = d.get("kind")
    drift = _drift_from_dict(d.get("drift"))
    if kind == "lognormal":
        return LognormalVolOfVol(sigma=float(d["sigma"]), drift=drift)
    if kind == "square_root":
        return SquareRootVolOfVol(sigma=float(d["sigma"]), drift=drift)
    raise ValueError(f"unknown vol_of_vol kind {kind!r}; expected one of {sorted(_VOL_OF_VOL_KINDS)}")


def model_from_dict(cfg: dict) -> LsvModel:
    """Build a model from the JSON configuration layout."""
    return LsvModel(
        s0=float(cfg["s0"]),
        v0=float(cfg["v0"]),
        rho=float(cfg["rho"]),
        r=float(cfg.get("r", 0.0)),
        q=float(cfg.get("q", 0.0)),
        local_vol=_local_vol_from_dict(cfg["local_vol"]),
        vol_of_vol=_vol_of_vol_from_dict(cfg["vol_of_vol"]),
    )


def model_to_dict(model: LsvModel) -> dict:
    """Inverse of :func:`model_from_dict`."""
    lv = model.local_vol
    if isinstance(lv, TanhLocalVol):
        lv_d = {"kind": "tanh", "f0": lv.f0, "f1": lv.f1, "x0": lv.x0}
    elif isinstance(lv, TaylorLocalVol):
        lv_d = {"kind": "taylor_log", "eta0": lv.eta0, "eta1": lv.eta1, "eta2": lv.eta2, "eta3": lv.eta3}
    else:
        lv_d = {"kind": "constant"}
    drift = model.vol_of_vol.drift
    if isinstance(drift, ZeroDrift):
        dr_d = {"kind": "zero"}
    elif isinstance(drift, ConstantDrift):
        dr_d = {"kind": "constant", "mu": drift.mu}
    else:
        dr_d = {"kind": "mean_reverting", "a": drift.a, "b": drift.b}
    vv_kind = "lognormal" if isinstance(model.vol_of_vol, LognormalVolOfVol) else "square_root"
    return {
        "s0": model.s0,
        "v0": model.v0,
        "rho": model.rho,
        "r": model.r,
        "q": model.q,
        "local_vol": lv_d,
        "vol_of_vol": {"kind": vv_kind, "sigma": model.vol_of_vol.sigma, "drift": dr_d},
    }


def load_model(path: str) -> LsvModel:
    """Load a model from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
