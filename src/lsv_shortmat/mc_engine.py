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

A block is a state (its generator, log-moneyness, variance and its positive
part, the optional control-variate track) that a fused step advances in
place, in buffers each worker allocates once: no array is allocated per
step.  The step runs the model's expressions as ``out=`` ufuncs in numpy's
own evaluation order, so its values are bit for bit those of the plain
expressions; one draw per step drives both rows of an antithetic pair.  The
n_blocks x n_steps block-steps are cut into one contiguous range per worker
(a wrap-around split), so a block may be started on one worker and finished
on the next; each block still takes its steps in order from its own stream.
When there are more CPUs than blocks, each block has a worker to itself,
and a spare CPU becomes a drawer for one block: it fills that block's
normals from the block's own generator into a ring of two buffers, a step
ahead of the block's worker, which then only does the arithmetic.  The
generator and the order of its draws are the same, so the bytes are too.

Workers hand over part-done blocks and draw buffers through
``queue.SimpleQueue`` alone, and every task has one exit rule: a stepper
that ends, finished or failed, puts ``None`` on each queue it feeds, and so
does a drawer whose draws fail, leaving its error on the ring; a stepper
that takes ``None`` raises, and a drawer stops.
"""

from __future__ import annotations

import math
import operator
import os
import queue
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._record import Record
from .black_scholes import OptionQuote, black_vega, implied_vol
from .model import LsvModel, vix_spot

__all__ = ["McConfig", "McSamples", "PriceEstimate", "SmilePoint", "simulate_paths", "terminal_values",
           "price", "vix_exact_meanrev", "proxy_error_bounds", "smile_from_mc", "default_strike_grid"]

_BLOCK = 16384


class McConfig(Record):
    """Simulation size, horizon and seeding."""

    n_paths: int
    n_steps: int
    maturity: float
    seed: int
    antithetic: bool = False

    def __post_init__(self) -> None:
        for name in ("n_paths", "n_steps", "seed"):
            value = getattr(self, name)
            try:
                # index() takes Python and numpy integers and refuses floats;
                # bool is an int, but True is no path count
                if type(value) is bool:
                    raise TypeError
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.n_paths < 2:
            raise ValueError("n_paths must be at least 2")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if not 0.0 < self.maturity < math.inf:
            raise ValueError("maturity must be positive and finite")


class McSamples(Record):
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


class PriceEstimate(Record):
    value: float
    std_error: float
    n: int


class _Row:
    """One sampling row of a block (its plain paths, or their mirrored
    partners) between steps: log-moneyness, variance, the positive part the
    coefficients see (v itself once an exact variance step has run) and the
    optional control-variate log-spot."""

    __slots__ = ("log_m", "v", "v_pos", "log_aux")

    def __init__(self, v0: float, aux: bool) -> None:
        self.log_m = np.zeros(_BLOCK)
        self.v = np.full(_BLOCK, v0)
        self.v_pos = np.full(_BLOCK, v0)
        self.log_aux = np.zeros(_BLOCK) if aux else None


def _generator(seed: int, index: int) -> np.random.Generator:
    """The Philox stream of path block ``index``."""
    return np.random.Generator(np.random.Philox(key=(int(seed) % (1 << 64)) * (1 << 64) + index))


class _Ring:
    """The draws of one block, filled ahead by a drawer and taken in order by
    the block's stepper, in two (2, _BLOCK) buffers that pass between them
    through two queues, ``free`` and ``full``.  ``None`` in a queue ends the
    wait on the other side: the stepper puts it on ``free`` when it is done
    with the block, finished or failed, and the drawer then stops; the drawer
    puts it on ``full`` when its draws fail, and the stepper then re-raises
    the drawer's error."""

    def __init__(self, seed: int, index: int, n_steps: int) -> None:
        self.index, self.n_steps = index, n_steps
        self.rng = _generator(seed, index)
        self.free, self.full = queue.SimpleQueue(), queue.SimpleQueue()
        self.error: BaseException | None = None
        for _ in range(2):
            self.free.put(np.empty((2, _BLOCK)))

    def fill(self) -> None:
        """The drawer: one step's draws per free buffer, n_steps in all."""
        try:
            for _ in range(self.n_steps):
                zb = self.free.get()
                if zb is None:
                    return
                # the fill releases the GIL, so it overlaps the stepper's arithmetic
                self.rng.standard_normal(out=zb)
                self.full.put(zb)
        except BaseException as exc:
            self.error = exc
            self.full.put(None)
            raise


class _Block:
    """A path block part-way through its steps: its sampling rows and the
    source of its draws, either the block's own Philox generator or a ring
    that a drawer fills from it.  A block may be started on one worker and
    finished on another."""

    __slots__ = ("index", "rng", "ring", "rows")

    def __init__(self, index: int, config: McConfig, v0: float, aux: bool, ring: _Ring | None) -> None:
        self.index, self.ring = index, ring
        self.rng = _generator(config.seed, index) if ring is None else None
        self.rows = [_Row(v0, aux) for _ in range(2 if config.antithetic else 1)]


class _Stepper:
    """One worker's scratch buffers and the constants of a run; it advances
    blocks by the fused step and writes finished blocks to the outputs.

    Every step runs the expressions

        dw      = sqrt(dt) (rho z + sqrt(1 - rho^2) b)
        log_m  += carry - 0.5 eta(log_m)^2 V+ dt + eta(log_m) sqrt(V+) dw
        log_aux += carry - 0.5 a^2 dt + a dw

    and the vol-of-vol spec's variance step as ``out=`` ufuncs in the order
    in which numpy evaluates them written out, so every value is bit for bit
    the one of the plain expressions.  Only two constants are folded: the
    all-scalar aux drift, and 0.5 dt, as (0.5 x) dt = x (0.5 dt) holds
    exactly while x = eta^2 V+ is zero or at least 2^-1021 (halving is
    exact above the subnormals).  sqrt(V+) is taken once per step and
    shared by the asset and the variance step.

    The mirrored row of an antithetic pair steps on -z and -b without
    drawing or combining them again: it negates z in place for the variance
    step and takes its partner's dw with the sign moved into the sums, as
    x + (-y) is x - y and rounding is symmetric in sign, so its values are
    bit for bit those of the negated draws.
    """

    def __init__(self, model: LsvModel, config: McConfig, aux_const_vol: float | None,
                 s_out: np.ndarray, v_out: np.ndarray, aux_out: np.ndarray | None, rings: list[_Ring]) -> None:
        self.model, self.config, self.aux_const_vol = model, config, aux_const_vol
        self.outputs = (s_out, v_out, aux_out)
        self.rings = rings
        self.dt = config.maturity / config.n_steps
        self.sq_dt = math.sqrt(self.dt)
        self.rho_perp = math.sqrt(1.0 - model.rho * model.rho)
        self.carry = (model.r - model.q) * self.dt
        if aux_const_vol is not None:
            self.aux_drift = self.carry - 0.5 * aux_const_vol**2 * self.dt
        # the draw buffer of the blocks this worker draws for itself, made
        # on the first such step: a ring-fed block brings its own buffers
        self.zb = None
        self.eta, self.tmp, self.sqrt_v, self.dw = (np.empty(_BLOCK) for _ in range(4))

    def start(self, index: int) -> _Block:
        ring = self.rings[index] if index < len(self.rings) else None
        return _Block(index, self.config, self.model.v0, self.aux_const_vol is not None, ring)

    def advance(self, block: _Block, steps: int) -> _Block:
        ring = block.ring
        for _ in range(steps):
            if ring is None:
                if self.zb is None:
                    self.zb = np.empty((2, _BLOCK))
                zb = block.rng.standard_normal(out=self.zb)
            else:
                zb = ring.full.get()
                if zb is None:
                    raise ring.error
            z, b = zb
            dw = self.dw
            np.multiply(z, self.model.rho, out=self.tmp)
            np.multiply(b, self.rho_perp, out=dw)
            np.add(self.tmp, dw, out=dw)
            np.multiply(dw, self.sq_dt, out=dw)
            plain, *mirrored = block.rows
            self._step(plain, z, np.add)
            for row in mirrored:
                # the partner steps on -z and -dw: z is negated for the
                # variance step, and dw enters by subtraction
                np.negative(z, out=z)
                self._step(row, z, np.subtract)
            if ring is not None:
                ring.free.put(zb)
        return block

    def _step(self, row: _Row, z: np.ndarray, shift) -> None:
        """Step one row on the increments dw of this step, which enter
        through ``shift``: np.add for the plain row, np.subtract for its
        mirrored partner."""
        model, dt = self.model, self.dt
        eta, tmp, sqrt_v, dw = self.eta, self.tmp, self.sqrt_v, self.dw
        model.local_vol.eta(row.log_m, out=eta)
        np.sqrt(row.v_pos, out=sqrt_v)
        np.multiply(eta, eta, out=tmp)
        np.multiply(tmp, row.v_pos, out=tmp)
        np.multiply(tmp, 0.5 * dt, out=tmp)
        np.subtract(self.carry, tmp, out=tmp)
        np.multiply(eta, sqrt_v, out=eta)
        np.multiply(eta, dw, out=eta)
        shift(tmp, eta, out=tmp)
        np.add(row.log_m, tmp, out=row.log_m)
        if row.log_aux is not None:
            np.multiply(dw, self.aux_const_vol, out=tmp)
            shift(self.aux_drift, tmp, out=tmp)
            np.add(row.log_aux, tmp, out=row.log_aux)
        row.v_pos = model.vol_of_vol.variance_step(row.v, row.v_pos, z, dt, sqrt_v, tmp)

    def finish(self, block: _Block) -> None:
        """Write a block that has taken every step into its columns of the
        (rows, n_paths) outputs.  Each map runs over the whole block before
        the last block is trimmed, so no value depends on the block's width."""
        s_out, v_out, aux_out = self.outputs
        lo = block.index * _BLOCK
        width = min(_BLOCK, self.config.n_paths - lo)
        cols = slice(lo, lo + width)
        tmp, s0 = self.tmp, self.model.s0
        for r, row in enumerate(block.rows):
            # a path truncated at 0 ends at 1e-300; exact steps stay positive
            v_out[r, cols] = np.maximum(row.v_pos, 1e-300, out=tmp)[:width]
            s_out[r, cols] = np.multiply(np.exp(row.log_m, out=tmp), s0, out=tmp)[:width]
            if aux_out is not None:
                aux_out[r, cols] = np.multiply(np.exp(row.log_aux, out=tmp), s0, out=tmp)[:width]


def _worker_count() -> int:
    """Every CPU this process may run on: its affinity mask where the OS
    has one (so taskset or a cpuset narrows it), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_share(stepper: _Stepper, lo: int, hi: int, handoff: list[queue.SimpleQueue], worker: int) -> None:
    """Run block-steps [lo, hi) of the block-major sequence on one worker.

    A share that ends inside a block first runs that block's head and puts
    the part-done block on queue ``worker + 1`` of ``handoff``; then its
    whole blocks; last, the tail of the block it shares with the previous
    worker, taken from queue ``worker``, where ``None`` means that worker
    ended without handing it over.  Heads come first and tails last, so a
    worker seldom waits, and about two blocks are live on a worker at a
    time."""
    n_steps = stepper.config.n_steps
    first, lo_step = divmod(lo, n_steps)
    last, hi_step = divmod(hi, n_steps)
    if hi_step:
        handoff[worker + 1].put(stepper.advance(stepper.start(last), hi_step))
    for index in range(first + (lo_step > 0), last):
        # no name keeps a finished block alive while the next one starts
        stepper.finish(stepper.advance(stepper.start(index), n_steps))
    if lo_step:
        block = handoff[worker].get()
        if block is None:
            raise RuntimeError(f"block {first} was not handed over")
        # the previous worker's share ended lo_step steps into this block
        stepper.finish(stepper.advance(block, n_steps - lo_step))


def simulate_paths(model: LsvModel, config: McConfig, aux_const_vol: float | None = None) -> McSamples:
    """Simulate terminal (S_T, V_T) samples.

    The n_blocks x n_steps block-steps are split into one contiguous range
    per stepping worker of a thread pool, one per usable CPU and at most one
    per block; a block cut by a range boundary is started on one worker and
    finished on the next.  CPUs beyond the blocks become drawers, at most
    one per block (so the pool is min(cpus, 2 n_blocks)): a drawer fills its
    block's normals from the block's generator a step ahead of the block's
    worker.  Hand-overs go through queues under the exit rule of the module
    docstring, so a failed task ends the run with its error rather than
    leaving another waiting.  Every block takes its draws in order from its
    own stream and its steps in order, so the output is bit-identical for
    any CPU count.  ``aux_const_vol`` additionally evolves a constant-vol
    GBM from the same Brownian increments (a control variate with known
    Black price).
    """
    n_blocks = (config.n_paths + _BLOCK - 1) // _BLOCK
    # the plain paths first, their antithetic partners second
    shape = (2 if config.antithetic else 1, config.n_paths)
    s, v = np.empty(shape), np.empty(shape)
    aux = np.empty(shape) if aux_const_vol is not None else None
    cpus = _worker_count()
    steppers = min(cpus, n_blocks)
    # with a CPU spare, worker w steps block w alone and ring w feeds it
    rings = [_Ring(config.seed, index, config.n_steps) for index in range(min(cpus, 2 * n_blocks) - steppers)]
    total = n_blocks * config.n_steps
    # queue w carries the block that worker w - 1 starts and worker w finishes
    handoff = [queue.SimpleQueue() for _ in range(steppers + 1)]

    def work(w: int) -> None:
        try:
            stepper = _Stepper(model, config, aux_const_vol, s, v, aux, rings)
            _run_share(stepper, w * total // steppers, (w + 1) * total // steppers, handoff, w)
        finally:
            # the exit rule: a None behind whatever this worker handed over
            handoff[w + 1].put(None)
            if w < len(rings):
                rings[w].free.put(None)

    with ThreadPoolExecutor(max_workers=steppers + len(rings)) as pool:
        # every task has a thread of its own, so no stepper waits on a
        # drawer that has none; drawers start first, as the draws are a
        # one-block run's critical path
        tasks = [pool.submit(ring.fill) for ring in rings] + [pool.submit(work, w) for w in range(steppers)]
        for task in tasks:
            task.result()
    return McSamples(terminal_s=s.reshape(-1), terminal_v=v.reshape(-1), config=config, model=model,
                     v_scheme=model.vol_of_vol.mc_scheme(),
                     terminal_s_aux=aux.reshape(-1) if aux is not None else None)


def _underlying(samples: McSamples, product: str) -> tuple[np.ndarray, float, float, bool]:
    """(per-path terminal values, forward, reference level, whether the
    forward is their sample mean) of the product.

    European options are written on S_T and quote off the exact carry
    forward S0 e^{(r-q)T}, which is also their reference level.  VIX options
    are written on the short-horizon proxy eta(S_T) sqrt(V_T); it has no
    closed-form forward, so they quote off its sample mean, with the VIX spot
    as reference level.  This is the one place that tells the products apart.
    """
    model = samples.model
    if product == "european":
        forward = model.s0 * math.exp((model.r - model.q) * samples.config.maturity)
        return samples.terminal_s, forward, forward, False
    if product == "vix":
        log_m = np.log(samples.terminal_s / model.s0)
        values = model.local_vol.eta(log_m) * np.sqrt(samples.terminal_v)
        return values, float(values.mean()), vix_spot(model), True
    raise ValueError("product must be 'european' or 'vix'")


def terminal_values(samples: McSamples, product: str) -> np.ndarray:
    """Per-path value at maturity of the product's underlying: S_T for
    European options, the VIX proxy eta(S_T) sqrt(V_T) for VIX options."""
    return _underlying(samples, product)[0]


def _payoff_samples(values: np.ndarray, strike: float, is_call: bool, antithetic: bool,
                    hedge: float = 0.0) -> np.ndarray:
    """The independent samples of the undiscounted payoff less ``hedge``
    units of the underlying: one per path, or per pair average for
    antithetic samples, so that an error bar reflects the paired estimator."""
    payoff = np.maximum(values - strike, 0.0) if is_call else np.maximum(strike - values, 0.0)
    if hedge:
        payoff -= hedge * values
    if antithetic:
        half = payoff.size // 2
        payoff = 0.5 * (payoff[:half] + payoff[half:])
    return payoff


def _standard_error(samples: np.ndarray) -> float:
    return float(samples.std(ddof=1) / math.sqrt(samples.size))


def _payoff_estimate(values: np.ndarray, strike: float, is_call: bool, antithetic: bool) -> PriceEstimate:
    """Undiscounted mean payoff with its standard error."""
    payoff = _payoff_samples(values, strike, is_call, antithetic)
    return PriceEstimate(float(payoff.mean()), _standard_error(payoff), payoff.size)


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


class SmilePoint(Record):
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
    standard error is pushed through to vol space via the Black vega.  Where
    the forward is the sample mean of the same values, the vol moves with
    the payoff less delta units of them (delta = dC/dF at the quoted vol),
    so the band is the standard error of that difference.  Strikes whose
    price falls outside the arbitrage band are returned with a skip reason
    instead of a vol.
    """
    strikes = np.atleast_1d(np.asarray(strikes, dtype=float))
    if strikes.size == 0:
        return []
    values, forward, reference, sampled_forward = _underlying(samples, product)
    antithetic = samples.config.antithetic
    t = samples.config.maturity
    lo_q, hi_q = np.quantile(values, [0.01, 0.99])
    undiscount = math.exp(samples.model.r * t)

    out: list[SmilePoint] = []
    for k in strikes:
        is_call = bool(k >= forward)
        est = _payoff_estimate(values, k, is_call, antithetic)
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
            error = est.std_error
            if sampled_forward and vega > 0.0:
                stdev = vol * math.sqrt(t)
                d1 = math.log(forward / k) / stdev + 0.5 * stdev
                # dC/dF of the Black price: N(d1) for a call, -N(-d1) for a put
                sign = 1.0 if is_call else -1.0
                delta = sign * 0.5 * math.erfc(-sign * d1 / math.sqrt(2.0))
                error = _standard_error(_payoff_samples(values, k, is_call, antithetic, delta))
            band = error / vega if vega > 0.0 else math.nan
        out.append(SmilePoint(strike=float(k), log_moneyness=log_m,
                              price=est.value / undiscount, std_error=est.std_error / undiscount,
                              implied_vol=vol, iv_low=vol - band, iv_high=vol + band,
                              skip_reason=reason))
    return out
