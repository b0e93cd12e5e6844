"""Monte Carlo simulation of the LSV model and option pricing.

The vol-of-vol spec steps the variance factor (``variance_step``) and names
its scheme (``mc_scheme``): exactly as a geometric Brownian motion when the
vol-of-vol is lognormal with zero or constant drift, by full-truncation
Euler otherwise, which the sample metadata flags as approximate.  The asset
is stepped by log-Euler with the correlated driver.

Randomness is organised in fixed-size path blocks, each drawn from its own
counter-based Philox stream keyed by (seed, block index).  Path i therefore
depends only on the seed and its own index - never on n_paths - and blocks
may be generated on any number of workers with bit-identical results.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .black_scholes import OptionQuote, black_vega, implied_vol
from .model import LsvModel, vix_spot

__all__ = [
    "McConfig",
    "McSamples",
    "PriceEstimate",
    "SmilePoint",
    "simulate_paths",
    "terminal_values",
    "price",
    "vix_exact_meanrev",
    "proxy_error_bounds",
    "smile_from_mc",
    "default_strike_grid",
]

_BLOCK = 16384


@dataclass(frozen=True)
class McConfig:
    """Simulation size, horizon and seeding."""

    n_paths: int
    n_steps: int
    maturity: float
    seed: int
    antithetic: bool = False

    def __post_init__(self) -> None:
        if self.n_paths < 2:
            raise ValueError("n_paths must be at least 2")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if not 0.0 < self.maturity < math.inf:
            raise ValueError("maturity must be positive and finite")


@dataclass(frozen=True)
class McSamples:
    """Terminal spot/variance samples plus provenance.

    With antithetic sampling the arrays hold the plain paths first and their
    mirrored partners second (2 * n_paths entries in total).  terminal_s_aux
    carries the terminal values of an optional constant-vol GBM driven by the
    same increments, for control-variate pricing.
    """

    terminal_s: np.ndarray
    terminal_v: np.ndarray
    config: McConfig
    model: LsvModel
    v_scheme: str
    terminal_s_aux: np.ndarray | None = None


@dataclass(frozen=True)
class PriceEstimate:
    value: float
    std_error: float
    n: int


def _simulate_block(model: LsvModel, config: McConfig, block_index: int, aux_const_vol: float | None,
                    s_out: np.ndarray, v_out: np.ndarray, aux_out: np.ndarray | None) -> None:
    """Simulate one fixed-width block of paths into its columns of the
    (passes, n_paths) outputs.  The full block is always drawn, so the
    content of path i is independent of n_paths; the last block is trimmed."""
    key = (int(config.seed) % (1 << 64)) * (1 << 64) + block_index
    n_steps = config.n_steps
    dt = config.maturity / n_steps
    sq_dt = math.sqrt(dt)
    lo = block_index * _BLOCK
    width = min(_BLOCK, config.n_paths - lo)
    cols = slice(lo, lo + width)

    rho = model.rho
    rho_perp = math.sqrt(1.0 - rho * rho)
    vv = model.vol_of_vol
    carry = (model.r - model.q) * dt

    for row, sign in enumerate((1.0, -1.0) if config.antithetic else (1.0,)):
        # a fresh generator per pass replays the identical stream, so the
        # antithetic partner uses exactly the mirrored increments
        rng = np.random.Generator(np.random.Philox(key=key))
        log_m = np.zeros(_BLOCK)
        # v_pos is the variance the coefficients see: max(v, 0) under full
        # truncation, v itself under an exact step
        v = v_pos = np.full(_BLOCK, model.v0)
        log_aux = np.zeros(_BLOCK) if aux_out is not None else None
        for step in range(n_steps):
            zb = rng.standard_normal((2, _BLOCK))
            z = sign * zb[0]
            b = sign * zb[1]
            dw = sq_dt * (rho * z + rho_perp * b)
            eta = model.local_vol.eta(log_m)
            loc_var = eta * eta * v_pos
            log_m += carry - 0.5 * loc_var * dt + eta * np.sqrt(v_pos) * dw
            if log_aux is not None:
                log_aux += carry - 0.5 * aux_const_vol**2 * dt + aux_const_vol * dw
            v, v_pos = vv.variance_step(v, v_pos, z, dt)
        # a path truncated at 0 ends at 1e-300; exact steps stay positive.
        # Mapped whole, then trimmed, so no value depends on the block's width
        v_out[row, cols] = np.maximum(v_pos, 1e-300)[:width]
        s_out[row, cols] = (model.s0 * np.exp(log_m))[:width]
        if aux_out is not None:
            aux_out[row, cols] = (model.s0 * np.exp(log_aux))[:width]


def _worker_count() -> int:
    """Every CPU this process may run on: its affinity mask where the OS
    has one (so taskset or a cpuset narrows it), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate_paths(model: LsvModel, config: McConfig, aux_const_vol: float | None = None) -> McSamples:
    """Simulate terminal (S_T, V_T) samples.

    Blocks run on a thread pool with one worker per usable CPU; the output
    is bit-identical for any worker count.  ``aux_const_vol`` additionally
    evolves a constant-vol GBM from the same Brownian increments (a control
    variate with known Black price).
    """
    if abs(model.rho) > 1.0:
        raise ValueError("|rho| must not exceed 1")
    n_blocks = (config.n_paths + _BLOCK - 1) // _BLOCK
    # the plain paths first, their antithetic partners second
    shape = (2 if config.antithetic else 1, config.n_paths)
    s, v = np.empty(shape), np.empty(shape)
    aux = np.empty(shape) if aux_const_vol is not None else None

    def work(bi: int) -> None:
        _simulate_block(model, config, bi, aux_const_vol, s, v, aux)

    with ThreadPoolExecutor(max_workers=min(_worker_count(), n_blocks)) as pool:
        # reading every result re-raises an error of any block here
        list(pool.map(work, range(n_blocks)))
    return McSamples(terminal_s=s.reshape(-1), terminal_v=v.reshape(-1), config=config, model=model,
                     v_scheme=model.vol_of_vol.mc_scheme(),
                     terminal_s_aux=aux.reshape(-1) if aux is not None else None)


def _underlying(samples: McSamples, product: str) -> tuple[np.ndarray, float, float]:
    """(per-path terminal values, forward, reference level) of the product.

    European options are written on S_T and quote off the exact carry
    forward S0 e^{(r-q)T}, which is also their reference level.  VIX options
    are written on the short-horizon proxy eta(S_T) sqrt(V_T); it has no
    closed-form forward, so they quote off its sample mean, with the VIX spot
    as reference level.  This is the one place that tells the products apart.
    """
    model = samples.model
    if product == "european":
        forward = model.s0 * math.exp((model.r - model.q) * samples.config.maturity)
        return samples.terminal_s, forward, forward
    if product == "vix":
        log_m = np.log(samples.terminal_s / model.s0)
        values = model.local_vol.eta(log_m) * np.sqrt(samples.terminal_v)
        return values, float(values.mean()), vix_spot(model)
    raise ValueError("product must be 'european' or 'vix'")


def terminal_values(samples: McSamples, product: str) -> np.ndarray:
    """Per-path value at maturity of the product's underlying: S_T for
    European options, the VIX proxy eta(S_T) sqrt(V_T) for VIX options."""
    return _underlying(samples, product)[0]


def _payoff_estimate(values: np.ndarray, strike: float, is_call: bool, antithetic: bool) -> PriceEstimate:
    """Undiscounted mean payoff with its standard error; antithetic samples
    are reduced to per-pair averages so the error bar reflects the paired
    estimator."""
    payoff = np.maximum(values - strike, 0.0) if is_call else np.maximum(strike - values, 0.0)
    if antithetic:
        half = payoff.size // 2
        payoff = 0.5 * (payoff[:half] + payoff[half:])
    n = payoff.size
    return PriceEstimate(float(payoff.mean()), float(payoff.std(ddof=1) / math.sqrt(n)), n)


def price(samples: McSamples, product: str, strike: float, is_call: bool) -> PriceEstimate:
    """European or VIX-proxy option price from the samples, discounted at
    the model rate over the simulated maturity."""
    if strike < 0.0:
        raise ValueError("strike must be nonnegative")
    est = _payoff_estimate(terminal_values(samples, product), strike, is_call, samples.config.antithetic)
    discount = math.exp(-samples.model.r * samples.config.maturity)
    return PriceEstimate(discount * est.value, discount * est.std_error, est.n)


def vix_exact_meanrev(samples: McSamples, mapping) -> np.ndarray:
    """Exact VIX level sqrt(alpha V_T + beta) per path for stochastic-vol
    models with mean-reverting (or constant) drift."""
    return np.sqrt(mapping.alpha * samples.terminal_v + mapping.beta)


def proxy_error_bounds(model: LsvModel, tau: float) -> tuple[float, float]:
    """Constants (C1, C2) bounding the VIX-proxy replacement error.

    C1 = 2 L M_eta |r - q| e^{|r-q| tau} tau is O(tau); C2 collects the
    variance-drift and vol-of-vol contributions and is O(sqrt(tau)).  Bounds
    exist only for specs with bounded eta, drift and vol-of-vol; each spec
    supplies its constants (``proxy_bounds``) or raises ValueError.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    lip, m_eta, m_eta2 = model.local_vol.proxy_bounds()
    m_sigma, m_mu = model.vol_of_vol.proxy_bounds()
    carry = abs(model.r - model.q)
    c1 = 2.0 * lip * m_eta * carry * math.exp(carry * tau) * tau
    inner = math.exp(2.0 * tau * m_mu) * math.exp(4.0 * tau * m_sigma**2) \
        + 1.0 - 2.0 * math.exp(-tau * m_mu - 0.5 * tau * m_sigma**2)
    c2 = m_eta**2 * math.sqrt(max(inner, 0.0)) \
        + 0.5 * tau * m_eta2 * m_eta**2 * math.exp(tau * (m_mu + m_sigma**2))
    return c1, c2


@dataclass(frozen=True)
class SmilePoint:
    """One strike of an MC implied-vol smile; skip_reason is set (and the vol
    fields are NaN) when the price cannot be inverted."""

    strike: float
    log_moneyness: float
    price: float
    std_error: float
    implied_vol: float
    iv_low: float
    iv_high: float
    skip_reason: str | None = None


def default_strike_grid(samples: McSamples, product: str, count: int = 21) -> np.ndarray:
    """Log-spaced strikes covering the [1%, 99%] quantile range of the
    simulated terminals for the requested product."""
    lo, hi = np.quantile(terminal_values(samples, product), [0.01, 0.99])
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), count))
    # exp(log(q)) can land an ulp outside [lo, hi], and smile_from_mc skips
    # strikes outside that range
    grid[-1:] = hi
    grid[:1] = lo
    return grid


def smile_from_mc(samples: McSamples, strikes, product: str) -> list[SmilePoint]:
    """Implied-vol smile from one common set of simulated paths.

    Each product inverts against its forward (see :func:`_underlying`).
    OTM sides are priced (call above the forward, put below) and the
    standard error is pushed through to vol space via the Black vega.
    Strikes whose price falls outside the arbitrage band are returned with a
    skip reason instead of a vol.
    """
    strikes = np.atleast_1d(np.asarray(strikes, dtype=float))
    if strikes.size == 0:
        return []
    values, forward, reference = _underlying(samples, product)
    t = samples.config.maturity
    lo_q, hi_q = np.quantile(values, [0.01, 0.99])
    undiscount = math.exp(samples.model.r * t)

    out: list[SmilePoint] = []
    for k in strikes:
        is_call = bool(k >= forward)
        est = _payoff_estimate(values, k, is_call, samples.config.antithetic)
        log_m = math.log(k / reference)
        vol = band = math.nan
        reason = None if lo_q <= k <= hi_q else "strike outside the [1%, 99%] sample quantile range"
        if reason is None:
            try:
                vol = implied_vol(OptionQuote(forward=forward, strike=float(k), maturity=t,
                                              is_call=is_call, price=est.value))
            except ValueError as exc:
                reason = str(exc)
        if reason is None:
            vega = black_vega(forward, float(k), vol, t)
            band = est.std_error / vega if vega > 0.0 else math.nan
        out.append(SmilePoint(strike=float(k), log_moneyness=log_m,
                              price=est.value / undiscount, std_error=est.std_error / undiscount,
                              implied_vol=vol, iv_low=vol - band, iv_high=vol + band,
                              skip_reason=reason))
    return out
