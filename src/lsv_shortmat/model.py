"""Local-stochastic volatility model specification.

The asset follows  dS/S = eta(S) sqrt(V) dW + (r - q) dt  where the variance
factor V has its own diffusion (lognormal or square-root vol-of-vol) and the
two Brownian drivers are correlated with coefficient rho.  The local-volatility
function eta is parameterised either by a bounded tanh shape, by a truncated
Taylor polynomial in log-moneyness, or held constant (pure stochastic vol).

Each local-vol spec class owns its formulas, all in log-moneyness k = log(s/s0):

* ``eta(k, out=None)``       - eta at an ndarray (or a float) of k, by numpy;
  with ``out`` (an ndarray of k's shape) it is written there with no
  temporaries, bit for bit the values without ``out``;
* ``eta_derivatives(k)``     - eta and its first three derivatives at a
  float k, in plain ``math``: the one scalar eta, which also gives the
  Taylor coefficients at the money (:func:`eta_log_coeffs`);
* ``inv_eta_integral(L)``    - the integral of 1/eta over k in [0, L].

The module-level helpers (:func:`eta_eval`, :func:`eta_log_coeffs`)
delegate to them.  Each drift spec class gives its dV drift at an ndarray
v, ``dv_drift(v, out)`` (0, or mu v or a (b - v) written into ``out``), and
``constant_mu()``, the mu of dV/V if it is constant, else None.

Each vol-of-vol spec class owns the rest of the factor's maths, in terminal
log-variance y, w = y - log v0 and log u = log(z / v0):

* ``variance_leg(y, v0)``    - the variance-leg integral Q(y) and its first
  two y-derivatives;
* ``path_rate(log_u, w, v0)`` - the variance-path rate function H with its
  gradient, Hessian and rounding error in (log u, w);
* ``variance_rate(v, v0)``   - the stochastic-vol rate of reaching variance v;
* ``mean_variance(v, v0)``   - the time-averaged variance along the path
  that attains that rate;
* ``sigma_at(v0)``           - the vol of vol sigma(V0) of dV/V at V0;
* ``variance_step(v, v_pos, z, dt, sqrt_v_pos, work)`` - one Monte Carlo
  step of V, by the scheme ``mc_scheme()`` names, in place in the arrays
  v and v_pos (V and its positive part V+); it returns the array that
  holds V+ afterwards and reuses the caller's sqrt(V+) and scratch array.

Every spec class also gives the constants of the VIX-proxy error bound
(``proxy_bounds()``, for a drift ``proxy_bound()``), raising ValueError where
the spec is unbounded.  The JSON layout of a model is read and written from
the dataclass fields alone, with one ``{kind: class}`` table per spec kind
(:data:`_KINDS`).

All spec objects are frozen dataclasses: they validate on construction and
their methods are pure, so everything here is safe to share across threads.
numpy is imported by the array methods alone (``eta``, ``dv_drift``, the
Taylor-spec quadrature, the tanh ``proxy_bounds`` and ``variance_step``),
so reading a model and the scalar formulas leave it unloaded.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Union

from . import heston_rate
from .hartman_watson import hw_F_derivatives

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
    "vix_spot",
    "check_moment_condition",
    "model_from_dict",
    "model_to_dict",
    "load_model",
]

@functools.cache
def _gl_rule():
    """The nodes and weights of 16-point Gauss-Legendre quadrature on
    [-1, 1], as ndarrays."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(16)


def _gl_panel(f: Callable, a: float, b: float) -> float:
    import numpy as np

    nodes, weights = _gl_rule()
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.dot(weights, f(mid + half * nodes)))


def _gl_adaptive(f, a: float, b: float, rel_tol: float = 1e-10, depth: int = 0) -> float:
    """Adaptive 16-point Gauss-Legendre quadrature; ``f`` takes all nodes of a
    panel at once."""
    whole = _gl_panel(f, a, b)
    mid = 0.5 * (a + b)
    split = _gl_panel(f, a, mid) + _gl_panel(f, mid, b)
    if abs(split - whole) <= rel_tol * max(abs(split), 1e-300) or depth >= 40:
        return split
    return _gl_adaptive(f, a, mid, rel_tol, depth + 1) + _gl_adaptive(f, mid, b, rel_tol, depth + 1)


@dataclass(frozen=True)
class TanhLocalVol:
    """Bounded local volatility eta(s) = f0 + f1 * tanh(log(s/s0) - x0).

    Requires f0 > |f1| so that eta stays strictly positive.
    """

    f0: float
    f1: float
    x0: float = 0.0

    def __post_init__(self) -> None:
        if not self.f0 > abs(self.f1):
            raise ValueError(f"tanh local vol requires f0 > |f1|, got f0={self.f0}, f1={self.f1}")

    def eta(self, k, out=None):
        import numpy as np

        if out is None:
            return self.f0 + self.f1 * np.tanh(k - self.x0)
        # k - 0.0 is k bit for bit, so x0 = 0 skips the pass
        np.tanh(k if self.x0 == 0.0 else np.subtract(k, self.x0, out=out), out=out)
        np.multiply(out, self.f1, out=out)
        return np.add(out, self.f0, out=out)

    def eta_derivatives(self, k: float) -> tuple[float, float, float, float]:
        # with t = tanh(k - x0) and s = 1 - t^2: eta' = f1 s, eta'' = -2 t f1 s
        # and eta''' = f1 s (4 t^2 - 2 s)
        t = math.tanh(k - self.x0)
        s = 1.0 - t * t
        slope = self.f1 * s
        return self.f0 + self.f1 * t, slope, -2.0 * t * slope, slope * (4.0 * t * t - 2.0 * s)

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

    def proxy_bounds(self) -> tuple[float, float, float]:
        """(|f1|, f0 + |f1|, sup over s of |(eta^2)''(s) s^2|).

        The last term is |g'' - g'| in log-moneyness, g = eta^2, which with
        t = tanh(k - x0) is |P(t)| for the quartic
        P(t) = 2 f1 (1 - t^2) ((f1 - f0) - (2 f0 + f1) t - 3 f1 t^2).  P
        vanishes at t = +-1, so |P| peaks at a real root of P' in (-1, 1).
        |P| is taken at the real part of every root, clipped to [-1, 1]; a
        complex root only adds a point below the peak.
        """
        import numpy as np
        from numpy.polynomial import Polynomial

        f0, f1 = self.f0, self.f1
        poly = Polynomial([1.0, 0.0, -1.0]) * Polynomial(
            [2.0 * f1 * (f1 - f0), -2.0 * f1 * (2.0 * f0 + f1), -6.0 * f1 * f1])
        ts = np.clip(poly.deriv().roots().real, -1.0, 1.0)
        return abs(f1), f0 + abs(f1), float(np.max(np.abs(poly(ts)), initial=0.0))


@dataclass(frozen=True)
class TaylorLocalVol:
    """Local volatility as a cubic polynomial in log-moneyness.

    eta(s) = eta0 + eta1*k + eta2*k^2 + eta3*k^3 with k = log(s/s0).
    Intended for smile-expansion work near the money; it is not guaranteed
    positive far from s0, so it has no finite proxy bounds.
    """

    eta0: float
    eta1: float = 0.0
    eta2: float = 0.0
    eta3: float = 0.0

    def __post_init__(self) -> None:
        if not self.eta0 > 0.0:
            raise ValueError(f"taylor local vol requires eta0 > 0, got {self.eta0}")

    def eta(self, k, out=None):
        if out is None:
            return self.eta0 + k * (self.eta1 + k * (self.eta2 + k * self.eta3))
        import numpy as np

        np.multiply(k, self.eta3, out=out)
        np.add(out, self.eta2, out=out)
        np.multiply(out, k, out=out)
        np.add(out, self.eta1, out=out)
        np.multiply(out, k, out=out)
        return np.add(out, self.eta0, out=out)

    def eta_derivatives(self, k: float) -> tuple[float, float, float, float]:
        return (self.eta(k), self.eta1 + k * (2.0 * self.eta2 + 3.0 * k * self.eta3),
                2.0 * self.eta2 + 6.0 * k * self.eta3, 6.0 * self.eta3)

    def inv_eta_integral(self, L: float) -> float:
        """Integral of 1/eta over [0, L] by adaptive 16-point Gauss-Legendre
        panels, each evaluated in one vectorised Horner pass."""

        def f(t):
            vals = self.eta(t)
            if (vals <= 0.0).any():
                raise ValueError("eta vanishes on the integration path")
            return 1.0 / vals

        return _gl_adaptive(f, 0.0, L)

    def proxy_bounds(self) -> tuple[float, float, float]:
        raise ValueError("taylor local vol is unbounded; no finite proxy bounds")


@dataclass(frozen=True)
class ConstantLocalVol:
    """eta(s) = 1: pure stochastic volatility dynamics (scale V0 for
    another level)."""

    def eta(self, k, out=None):
        import numpy as np

        if out is None:
            return np.ones_like(k, dtype=float)[()]
        out.fill(1.0)
        return out

    def eta_derivatives(self, k: float) -> tuple[float, float, float, float]:
        return 1.0, 0.0, 0.0, 0.0

    def inv_eta_integral(self, L: float) -> float:
        return L

    def proxy_bounds(self) -> tuple[float, float, float]:
        return 0.0, 1.0, 0.0


LocalVolSpec = Union[TanhLocalVol, TaylorLocalVol, ConstantLocalVol]


@dataclass(frozen=True)
class ZeroDrift:
    """Driftless variance factor."""

    def dv_drift(self, v, out):
        return 0.0

    def constant_mu(self) -> float | None:
        return 0.0

    def proxy_bound(self) -> float:
        return 0.0


@dataclass(frozen=True)
class ConstantDrift:
    """dV/V drift equal to a constant mu (per year)."""

    mu: float

    def dv_drift(self, v, out):
        import numpy as np

        return np.multiply(v, self.mu, out=out)

    def constant_mu(self) -> float | None:
        return self.mu

    def proxy_bound(self) -> float:
        return abs(self.mu)


@dataclass(frozen=True)
class MeanRevertingDrift:
    """Drift mu(V) V = a (b - V): mean reversion at speed a towards level b."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError("mean-reverting drift requires a > 0 and b > 0")

    def dv_drift(self, v, out):
        import numpy as np

        np.subtract(self.b, v, out=out)
        return np.multiply(out, self.a, out=out)

    def constant_mu(self) -> float | None:
        return None

    def proxy_bound(self) -> float:
        raise ValueError("mean-reverting drift mu(v) = a(b-v)/v is unbounded; no finite proxy bounds")


DriftSpec = Union[ZeroDrift, ConstantDrift, MeanRevertingDrift]


_EPS = 2.0**-52


def _euler_step(spec, v, v_pos, scale, z, dt: float, work):
    """Full-truncation Euler step of V in place:
    v <- v + drift(V+) dt + sigma scale sqrt(dt) z, then V+ = max(v, 0) into
    ``v_pos``, which it returns.  ``scale`` is V+ for a lognormal factor and
    sqrt(V+) for a square-root one; the operations run in the order of that
    expression, so the step is bit for bit the one without buffers."""
    import numpy as np

    np.multiply(spec.drift.dv_drift(v_pos, out=work), dt, out=work)
    np.add(v, work, out=v)
    np.multiply(scale, spec.sigma, out=work)
    np.multiply(work, math.sqrt(dt), out=work)
    np.multiply(work, z, out=work)
    np.add(v, work, out=v)
    return np.maximum(v, 0.0, out=v_pos)


@dataclass(frozen=True)
class LognormalVolOfVol:
    """Variance diffusion dV/V = sigma dZ + drift: lognormal (SABR-type) factor."""

    sigma: float
    drift: DriftSpec = field(default_factory=ZeroDrift)

    def __post_init__(self) -> None:
        if self.sigma <= 0.0:
            raise ValueError("vol-of-vol sigma must be positive")

    def variance_leg(self, y: float, v0: float) -> tuple[float, float, float]:
        """Q = 2 (e^{y/2} - sqrt(v0)) / sigma and its y-derivatives."""
        e = math.exp(0.5 * y) / self.sigma
        return 2.0 * e - 2.0 * math.sqrt(v0) / self.sigma, e, 0.5 * e

    def path_rate(self, log_u: float, w: float, v0: float):
        """H = I(u, v) / (2 sigma^2) at u = e^{log u}, v = e^{w/2}, with
        I = 8 F(r) + 4 (e^{-log u} + e^{w - log u}) - 4 pi^2 and r = v/u.

        F enters through L = log r = w/2 - log u, with dF/dL = r F' and
        d^2F/dL^2 = r F' + r^2 F'' (:func:`hw_F_derivatives`).  Returns
        (H, rounding error, (H_log_u, H_w), (H_log_u_log_u, H_log_u_w, H_ww)).
        """
        r = math.exp(0.5 * w - log_u)
        f, f1, f2 = hw_F_derivatives(r)
        f_l = r * f1
        f_ll = f_l + r * r * f2
        e1 = math.exp(-log_u)
        e2 = math.exp(w - log_u)
        scale = 0.5 / (self.sigma * self.sigma)
        value = scale * (8.0 * f + 4.0 * (e1 + e2) - 4.0 * math.pi**2)
        noise = 4.0 * _EPS * scale * (8.0 * abs(f) + 4.0 * (e1 + e2) + 4.0 * math.pi**2)
        grad = (scale * (-8.0 * f_l - 4.0 * (e1 + e2)), scale * (4.0 * f_l + 4.0 * e2))
        hess = (scale * (8.0 * f_ll + 4.0 * (e1 + e2)), scale * (-4.0 * f_ll - 4.0 * e2),
                scale * (2.0 * f_ll + 4.0 * e2))
        return value, noise, grad, hess

    def variance_rate(self, v: float, v0: float) -> float:
        """J = (1/2) (integral of dx / (x sigma(x)) from v0 to v)^2
        = log^2(v / v0) / (2 sigma^2)."""
        return math.log(v / v0) ** 2 / (2.0 * self.sigma * self.sigma)

    def mean_variance(self, v: float, v0: float) -> float:
        """Time average v0 (r - 1) / log r, r = v / v0, of the path
        V_t = v0 r^t that attains :meth:`variance_rate` (log V linear in t);
        v0 where r rounds to 1."""
        r = v / v0
        return v0 if r == 1.0 else v0 * (r - 1.0) / math.log(r)

    def sigma_at(self, v0: float) -> float:
        return self.sigma

    def mc_scheme(self) -> str:
        return "euler-full-truncation" if self.drift.constant_mu() is None else "exact-gbm"

    def variance_step(self, v, v_pos, z, dt: float, sqrt_v_pos, work):
        """One step of V from the standard normals z, in place: an exact
        geometric Brownian step of v for a constant mu, full-truncation
        Euler (:func:`_euler_step`) otherwise.  Returns the array that now
        holds V+, the variance every coefficient sees: v itself under the
        exact step.  ``sqrt_v_pos`` (sqrt(V+), unused here) and ``work`` are
        caller-owned arrays of v's shape; ``work`` is overwritten."""
        mu = self.drift.constant_mu()
        if mu is None:
            return _euler_step(self, v, v_pos, v_pos, z, dt, work)
        import numpy as np

        np.multiply(z, self.sigma * math.sqrt(dt), out=work)
        np.add(work, (mu - 0.5 * self.sigma * self.sigma) * dt, out=work)
        np.exp(work, out=work)
        return np.multiply(v, work, out=v)

    def proxy_bounds(self) -> tuple[float, float]:
        return self.sigma, self.drift.proxy_bound()


@dataclass(frozen=True)
class SquareRootVolOfVol:
    """Variance diffusion dV = sigma sqrt(V) dZ + drift terms: Heston-type factor."""

    sigma: float
    drift: DriftSpec = field(default_factory=ZeroDrift)

    def __post_init__(self) -> None:
        if self.sigma <= 0.0:
            raise ValueError("vol-of-vol sigma must be positive")

    def variance_leg(self, y: float, v0: float) -> tuple[float, float, float]:
        """Q = (e^y - v0) / sigma and its y-derivatives."""
        e = math.exp(y) / self.sigma
        return e - v0 / self.sigma, e, e

    def path_rate(self, log_u: float, w: float, v0: float):
        """H = v0 I_H(x, y) at x = e^{log u}, y = e^w, in the layout of
        :meth:`LognormalVolOfVol.path_rate`, read off the point of
        :func:`heston_rate.legendre_point` (gradient (theta, phi)), or None
        when the transform does not certify its maximiser."""
        x = math.exp(log_u)
        y = math.exp(w)
        pt = heston_rate.legendre_point(x, y, self.sigma)
        if not pt.converged:
            return None
        i_x, i_y = pt.theta, pt.phi
        i_xx, i_xy, i_yy = pt.hessian
        return (v0 * pt.value, v0 * pt.noise, (v0 * x * i_x, v0 * y * i_y),
                (v0 * x * (i_x + x * i_xx), v0 * x * y * i_xy, v0 * y * (i_y + y * i_yy)))

    def variance_rate(self, v: float, v0: float) -> float:
        """J = 2 (sqrt(v) - sqrt(v0))^2 / sigma^2, as for the lognormal factor."""
        return 2.0 * (math.sqrt(v) - math.sqrt(v0)) ** 2 / (self.sigma * self.sigma)

    def mean_variance(self, v: float, v0: float) -> float:
        """Time average (v0 + sqrt(v0 v) + v) / 3 of the path that attains
        :meth:`variance_rate` (sqrt(V) linear in t); v0 where v / v0 rounds
        to 1."""
        return v0 if v / v0 == 1.0 else (v0 + math.sqrt(v0 * v) + v) / 3.0

    def sigma_at(self, v0: float) -> float:
        return self.sigma / math.sqrt(v0)

    def mc_scheme(self) -> str:
        return "euler-full-truncation"

    def variance_step(self, v, v_pos, z, dt: float, sqrt_v_pos, work):
        """One full-truncation Euler step (:func:`_euler_step`) in place, in
        the layout of :meth:`LognormalVolOfVol.variance_step`; the diffusion
        term reads the caller's sqrt(V+) rather than taking it again."""
        return _euler_step(self, v, v_pos, sqrt_v_pos, z, dt, work)

    def proxy_bounds(self) -> tuple[float, float]:
        raise ValueError("square-root vol-of-vol is unbounded near 0; no finite proxy bounds")


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
    return spec.eta_derivatives(math.log(s / s0))[0]


def eta_log_coeffs(spec: LocalVolSpec, order: int = 3) -> list[float]:
    """Taylor coefficients of eta in powers of log(s/s0), up to the cubic:
    the derivatives of eta at the money over n!."""
    if order not in (0, 1, 2, 3):
        raise ValueError("order must be one of 0, 1, 2, 3")
    eta, d1, d2, d3 = spec.eta_derivatives(0.0)
    return [eta, d1, d2 / 2.0, d3 / 6.0][: order + 1]


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

_KINDS = {
    "local_vol": {"tanh": TanhLocalVol, "taylor_log": TaylorLocalVol, "constant": ConstantLocalVol},
    "drift": {"zero": ZeroDrift, "constant": ConstantDrift, "mean_reverting": MeanRevertingDrift},
    "vol_of_vol": {"lognormal": LognormalVolOfVol, "square_root": SquareRootVolOfVol},
}
_KIND_OF = {cls: kind for table in _KINDS.values() for kind, cls in table.items()}


def _object(d, where: str) -> dict:
    """A copy of the JSON object ``d``; ValueError for any other value."""
    try:
        return dict(d.items())
    except AttributeError:
        raise ValueError(f"{where} must be a JSON object, got {reprlib.repr(d)}") from None


def _read(cls, d: dict, path: str):
    """``cls`` from the JSON object ``d`` whose keys sit under ``path``: each
    dataclass field from the key of its name, a spec field (a key of
    :data:`_KINDS`) by its ``kind`` and any other field as a float from a
    JSON number (not true/false, not a string).  Only a
    field with a default may be left out; any other malformed input raises
    ValueError naming its key."""
    names = [f.name for f in fields(cls)]
    unknown = sorted(d.keys() - set(names))
    if unknown:
        raise ValueError(f"unknown key {path}{unknown[0]}; {cls.__name__} takes {names}")
    kwargs = {}
    for f in fields(cls):
        key, value = path + f.name, d.get(f.name)
        if f.name not in d:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"missing key {key}")
        elif f.name in _KINDS:
            spec, table = _object(value, key), _KINDS[f.name]
            kind = spec.pop("kind", None)
            try:
                kind_cls = table[kind]
            except (KeyError, TypeError):
                raise ValueError(f"{key}.kind must be one of {sorted(table)}, got {reprlib.repr(kind)}") from None
            kwargs[f.name] = _read(kind_cls, spec, key + ".")
        else:
            try:
                # float() would read true as 1.0 and "0.25" as 0.25
                if type(value) in (bool, str):
                    raise TypeError
                kwargs[f.name] = float(value)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"{key} must be a number, got {reprlib.repr(value)}") from None
            # json reads NaN and Infinity, and the spec checks' comparisons let NaN through
            if not math.isfinite(kwargs[f.name]):
                raise ValueError(f"{key} must be finite, got {reprlib.repr(value)}")
    return cls(**kwargs)


def _write(obj) -> dict:
    """The JSON object :func:`_read` reads back to ``obj``."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = {"kind": _KIND_OF[type(value)], **_write(value)} if f.name in _KINDS else value
    return out


def model_from_dict(cfg: dict) -> LsvModel:
    """Build a model from the JSON configuration layout."""
    return _read(LsvModel, _object(cfg, "model"), "")


def model_to_dict(model: LsvModel) -> dict:
    """Inverse of :func:`model_from_dict`."""
    return _write(model)


def load_model(path: str) -> LsvModel:
    """Load a model from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
