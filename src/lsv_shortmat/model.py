"""Local-stochastic volatility model specification.

The asset follows  dS/S = eta(S) sqrt(V) dW + (r - q) dt  where the variance
factor V has its own diffusion (lognormal or square-root vol-of-vol) and the
two Brownian drivers are correlated with coefficient rho.  The local-volatility
function eta is parameterised either by a bounded tanh shape, by a truncated
Taylor polynomial in log-moneyness, or held constant (pure stochastic vol).

Each local-vol spec class owns its formulas, all in log-moneyness k = log(s/s0):

* ``eta(k, out=None)``       - eta at an ndarray (or a float) of k, by numpy
  in place with no temporaries: into ``out`` (an ndarray of k's shape), or
  else into a new array of k's shape (0-d for a float k);
* ``eta_derivatives(k)``     - eta and its first three derivatives at a
  float k, in plain ``math``: the one scalar eta, which also gives the
  Taylor coefficients at the money (:func:`eta_log_coeffs`, whose eta0
  :func:`vix_spot` reads);
* ``inv_eta_integral(L)``    - the integral of 1/eta over k in [0, L].

Each drift spec class gives its dV drift at an ndarray v, ``dv_drift(v,
out)`` (0, or mu v or a (b - v) written into ``out``), and ``constant_mu()``,
the mu of dV/V if it is constant, else None.

Each vol-of-vol spec class owns the rest of the factor's maths, in terminal
log-variance y, w = y - log v0 and log u = log(z / v0):

* ``variance_leg(w, v0)``    - the variance-leg integral Q and its first
  two w-derivatives (whose ratio gives the family, :func:`elasticity`);
* ``path_rate(log_u, w, v0)`` - the variance-path rate function H with its
  gradient, Hessian and rounding error in (log u, w);
* ``variance_rate(w, v0)``   - the stochastic-vol rate of reaching v0 e^w;
* ``mean_variance(w, v0)``   - the time-averaged variance along the path
  that attains that rate;
* ``sigma_at(v0)``           - the vol of vol sigma(V0) of dV/V at V0;
* ``variance_step(v, v_pos, z, dt, sqrt_v_pos, work)`` - one Monte Carlo
  step of V, by the scheme ``mc_scheme()`` names, in place in the arrays
  v and v_pos (V and its positive part V+); it returns the array that
  holds V+ afterwards and reuses the caller's sqrt(V+) and scratch array.

Every spec class also gives the constants of the VIX-proxy error bound
(``proxy_bounds()``, for a drift ``proxy_bound()``), raising ValueError where
the spec is unbounded.  The JSON layout of a model is read and written from
the record fields alone (``_fields`` and ``_defaults``), with one
``{kind: class}`` table per spec kind (:data:`_KINDS`).

All spec objects are immutable records (:class:`._record.Record`): they
validate on construction and their methods are pure, so everything here is
safe to share across threads.  numpy is imported by the array methods alone
(``eta``, ``dv_drift``, the Taylor-spec quadrature, the tanh
``proxy_bounds`` and ``variance_step``), and each vol-of-vol family's
transform module by the first ``path_rate`` of that family, so reading a
model and the scalar formulas leave numpy and both transform modules
unloaded.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
from typing import Callable, Union

from ._record import Record

__all__ = ["TanhLocalVol", "TaylorLocalVol", "ConstantLocalVol", "LocalVolSpec", "ZeroDrift", "ConstantDrift",
           "MeanRevertingDrift", "DriftSpec", "LognormalVolOfVol", "SquareRootVolOfVol", "VolOfVolSpec",
           "LsvModel", "eta_log_coeffs", "vix_spot", "elasticity", "check_moment_condition",
           "model_from_dict", "model_to_dict", "load_model"]

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


class TanhLocalVol(Record):
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
            out = np.empty(np.shape(k))
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


class TaylorLocalVol(Record):
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
        import numpy as np

        if out is None:
            out = np.empty(np.shape(k))
        np.multiply(k, self.eta3, out=out)
        np.add(out, self.eta2, out=out)
        np.multiply(out, k, out=out)
        np.add(out, self.eta1, out=out)
        np.multiply(out, k, out=out)
        return np.add(out, self.eta0, out=out)

    def eta_derivatives(self, k: float) -> tuple[float, float, float, float]:
        return (self.eta0 + k * (self.eta1 + k * (self.eta2 + k * self.eta3)),
                self.eta1 + k * (2.0 * self.eta2 + 3.0 * k * self.eta3),
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


class ConstantLocalVol(Record):
    """eta(s) = 1: pure stochastic volatility dynamics (scale V0 for
    another level)."""

    def eta(self, k, out=None):
        import numpy as np

        if out is None:
            out = np.empty(np.shape(k))
        out.fill(1.0)
        return out

    def eta_derivatives(self, k: float) -> tuple[float, float, float, float]:
        return 1.0, 0.0, 0.0, 0.0

    def inv_eta_integral(self, L: float) -> float:
        return L

    def proxy_bounds(self) -> tuple[float, float, float]:
        return 0.0, 1.0, 0.0


LocalVolSpec = Union[TanhLocalVol, TaylorLocalVol, ConstantLocalVol]


class ZeroDrift(Record):
    """Driftless variance factor."""

    def dv_drift(self, v, out):
        return 0.0

    def constant_mu(self) -> float | None:
        return 0.0

    def proxy_bound(self) -> float:
        return 0.0


class ConstantDrift(Record):
    """dV/V drift equal to a constant mu (per year)."""

    mu: float

    def dv_drift(self, v, out):
        import numpy as np

        return np.multiply(v, self.mu, out=out)

    def constant_mu(self) -> float | None:
        return self.mu

    def proxy_bound(self) -> float:
        return abs(self.mu)


class MeanRevertingDrift(Record):
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
# the transform module of each vol-of-vol family, bound by its first path_rate
_hartman_watson = _heston_rate = None


def _expm1_parts(x: float) -> tuple[float, float]:
    """(e^x - 1, e^x - 1 - x), the second by its Taylor series where it cancels."""
    em1 = math.expm1(x)
    if abs(x) > 0.2:
        return em1, em1 - x
    return em1, x * x * (1 / 2 + x * (1 / 6 + x * (1 / 24 + x * (1 / 120 + x * (1 / 720 + x * (
        1 / 5040 + x * (1 / 40320 + x * (1 / 362880 + x * (1 / 3628800 + x / 39916800)))))))))


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


class LognormalVolOfVol(Record):
    """Variance diffusion dV/V = sigma dZ + drift: lognormal (SABR-type) factor."""

    sigma: float
    drift: DriftSpec = ZeroDrift()

    def __post_init__(self) -> None:
        if self.sigma <= 0.0:
            raise ValueError("vol-of-vol sigma must be positive")

    def variance_leg(self, w: float, v0: float) -> tuple[float, float, float]:
        """Q = 2 (e^{y/2} - sqrt(v0)) / sigma = 2 sqrt(v0) expm1(w/2) / sigma and its w-derivatives."""
        c = math.sqrt(v0) / self.sigma
        return 2.0 * c * math.expm1(0.5 * w), c * math.exp(0.5 * w), 0.5 * c * math.exp(0.5 * w)

    def path_rate(self, log_u: float, w: float, v0: float):
        """H = I(u, v) / (2 sigma^2) at u = e^{log u}, v = e^{w/2}, with
        I = 8 F(r) + 4 (e^{-log u} + e^{w - log u}) - 4 pi^2 and r = v/u.

        With L = log r = w/2 - log u and phi(x) = e^x - 1 - x the first-order
        parts cancel against F(1) = pi^2/2 - 1: I = 8 D(L) + 4 (phi(-log u) +
        phi(w - log u)), D = F - F(1) + L (:func:`.hartman_watson.hw_F_deviation`),
        every term of second order in (log u, w).  Returns (H, rounding error,
        (H_log_u, H_w), (H_log_u_log_u, H_log_u_w, H_ww)).
        """
        global _hartman_watson
        if _hartman_watson is None:
            from . import hartman_watson as _hartman_watson
        d, d1, d2, d_size = _hartman_watson.hw_F_deviation(0.5 * w - log_u)
        m1, p1 = _expm1_parts(-log_u)
        m2, p2 = _expm1_parts(w - log_u)
        e1, e2 = 1.0 + m1, 1.0 + m2
        scale = 0.5 / (self.sigma * self.sigma)
        value = scale * (8.0 * d + 4.0 * (p1 + p2))
        noise = 4.0 * _EPS * scale * (8.0 * d_size + 4.0 * (p1 + p2))
        grad = (scale * (-8.0 * d1 - 4.0 * (m1 + m2)), scale * (4.0 * d1 + 4.0 * m2))
        hess = (scale * (8.0 * d2 + 4.0 * (e1 + e2)), scale * (-4.0 * d2 - 4.0 * e2),
                scale * (2.0 * d2 + 4.0 * e2))
        return value, noise, grad, hess

    def variance_rate(self, w: float, v0: float) -> float:
        """J = (1/2) (integral of dx / (x sigma(x)) from v0 to v0 e^w)^2 = w^2 / (2 sigma^2)."""
        return w * w / (2.0 * self.sigma * self.sigma)

    def mean_variance(self, w: float, v0: float) -> float:
        """Time average v0 (e^w - 1) / w of the path V_t = v0 e^{w t} that
        attains :meth:`variance_rate` (log V linear in t); v0 at w = 0."""
        return v0 if w == 0.0 else v0 * math.expm1(w) / w

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


class SquareRootVolOfVol(Record):
    """Variance diffusion dV = sigma sqrt(V) dZ + drift terms: Heston-type factor."""

    sigma: float
    drift: DriftSpec = ZeroDrift()

    def __post_init__(self) -> None:
        if self.sigma <= 0.0:
            raise ValueError("vol-of-vol sigma must be positive")

    def variance_leg(self, w: float, v0: float) -> tuple[float, float, float]:
        """Q = (e^y - v0) / sigma = v0 expm1(w) / sigma and its w-derivatives."""
        c = v0 / self.sigma
        return c * math.expm1(w), c * math.exp(w), c * math.exp(w)

    def path_rate(self, log_u: float, w: float, v0: float):
        """H = v0 I_H(x, y) at x = e^{log u}, y = e^w, in the layout of
        :meth:`LognormalVolOfVol.path_rate`, read off the point of
        :func:`heston_rate.legendre_point` at (log u, w) (gradient (theta, phi)),
        or None when the transform does not certify its maximiser."""
        global _heston_rate
        if _heston_rate is None:
            from . import heston_rate as _heston_rate
        pt = _heston_rate.legendre_point(log_u, w, self.sigma)
        if not pt.converged:
            return None
        x, y, i_x, i_y = pt.x, pt.y, pt.theta, pt.phi
        i_xx, i_xy, i_yy = pt.hessian
        return (v0 * pt.value, v0 * pt.noise, (v0 * x * i_x, v0 * y * i_y),
                (v0 * x * (i_x + x * i_xx), v0 * x * y * i_xy, v0 * y * (i_y + y * i_yy)))

    def variance_rate(self, w: float, v0: float) -> float:
        """J = 2 (sqrt(v) - sqrt(v0))^2 / sigma^2 = 2 v0 expm1(w/2)^2 / sigma^2."""
        return 2.0 * v0 * math.expm1(0.5 * w) ** 2 / (self.sigma * self.sigma)

    def mean_variance(self, w: float, v0: float) -> float:
        """Time average (v0 + sqrt(v0 v) + v) / 3 = v0 (1 + e^{w/2} + e^w) / 3 of
        the path that attains :meth:`variance_rate` (sqrt(V) linear in t)."""
        return v0 * ((1.0 + math.exp(0.5 * w) + math.exp(w)) / 3.0)

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


class LsvModel(Record):
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


def eta_log_coeffs(spec: LocalVolSpec) -> list[float]:
    """The four Taylor coefficients [eta0, eta1, eta2, eta3] of eta in powers
    of log(s/s0): the derivatives of eta at the money over n!."""
    eta, d1, d2, d3 = spec.eta_derivatives(0.0)
    return [eta, d1, d2 / 2.0, d3 / 6.0]


def vix_spot(model: LsvModel) -> float:
    """Zero-maturity VIX level eta(s0) * sqrt(v0)."""
    return eta_log_coeffs(model.local_vol)[0] * math.sqrt(model.v0)


def elasticity(spec: VolOfVolSpec, v0: float) -> float:
    """The family as a value: e = V0 sigma'(V0) / sigma(V0) = 1/2 - Q''/Q' of the
    variance leg (Q' = sqrt(V) / sigma(V)) at w = 0, exactly 0 lognormal and -1/2 square-root."""
    _, q1, q2 = spec.variance_leg(0.0, v0)
    return 0.5 - q2 / q1


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
    record field from the key of its name, a spec field (a key of
    :data:`_KINDS`) by its ``kind`` and any other field as a float from a
    JSON number (not true/false, not a string).  Only a
    field with a default may be left out; any other malformed input raises
    ValueError naming its key."""
    names = list(cls._fields)
    unknown = sorted(d.keys() - set(names))
    if unknown:
        raise ValueError(f"unknown key {path}{unknown[0]}; {cls.__name__} takes {names}")
    kwargs = {}
    for name in names:
        key, value = path + name, d.get(name)
        if name not in d:
            if name not in cls._defaults:
                raise ValueError(f"missing key {key}")
        elif name in _KINDS:
            spec, table = _object(value, key), _KINDS[name]
            kind = spec.pop("kind", None)
            try:
                kind_cls = table[kind]
            except (KeyError, TypeError):
                raise ValueError(f"{key}.kind must be one of {sorted(table)}, got {reprlib.repr(kind)}") from None
            kwargs[name] = _read(kind_cls, spec, key + ".")
        else:
            try:
                # float() would read true as 1.0 and "0.25" as 0.25
                if type(value) in (bool, str):
                    raise TypeError
                kwargs[name] = float(value)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"{key} must be a number, got {reprlib.repr(value)}") from None
            # json reads NaN and Infinity, and the spec checks' comparisons let NaN through
            if not math.isfinite(kwargs[name]):
                raise ValueError(f"{key} must be finite, got {reprlib.repr(value)}")
    return cls(**kwargs)


def _write(obj) -> dict:
    """The JSON object :func:`_read` reads back to ``obj``."""
    out = {}
    for name in obj._fields:
        value = getattr(obj, name)
        out[name] = {"kind": _KIND_OF[type(value)], **_write(value)} if name in _KINDS else value
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
