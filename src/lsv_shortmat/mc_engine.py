"""Monte Carlo simulation of the LSV model and option pricing.

The vol-of-vol spec steps the variance factor (``variance_step``) and names
its scheme (``mc_scheme``): exactly as a geometric Brownian motion when the
vol-of-vol is lognormal with zero or constant drift, by full-truncation
Euler otherwise, which the sample metadata flags as approximate.  The asset
is stepped by log-Euler with the correlated driver.

Randomness is organised in fixed-size path blocks.  Each step of a block
draws two rows of normals (z, then b), and row r of step j of block b is
its own counter-based Philox substream: key (seed mod 2^64) 2^64 + b,
counter (j << 192) | (r << 128).  Path i therefore depends only on the seed
and its own index - never on n_paths - and blocks may be generated on any
number of workers with bit-identical results.

A block is a state (its step count, log-moneyness, variance and its
positive part, the optional control-variate track) that a fused step
advances in place, in buffers each worker allocates once at the width of
the widest block it steps: no array is allocated per step.  The step runs
the model's expressions as ``out=`` ufuncs in numpy's own evaluation order,
so its values are bit for bit those of the plain expressions; one draw per
step drives both rows of an antithetic pair.  A ragged last block holds,
draws and steps only its own paths.  The n_blocks x n_steps block-steps are
cut into one contiguous range per worker (a wrap-around split) at equal
shares of their cost, so a block may be started on one worker and finished
on the next; the block carries its step count, from which the next worker
keys its draws.
When there are more CPUs than blocks, each block has a worker to itself,
and a spare CPU becomes a drawer for one block: it fills that block's
normals from the block's substreams into a ring of two buffers, a step
ahead of the block's worker, which then only does the arithmetic.  The
substreams are the same, so the bytes are too.  Each worker and each
drawer owns one Philox generator, which it re-keys before every row it
draws.

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
    optional control-variate log-spot, each as wide as the block."""

    __slots__ = ("log_m", "v", "v_pos", "log_aux")

    def __init__(self, v0: float, aux: bool, width: int) -> None:
        self.log_m = np.zeros(width)
        self.v = np.full(width, v0)
        self.v_pos = np.full(width, v0)
        self.log_aux = np.zeros(width) if aux else None


def _width(n_paths: int, index: int) -> int:
    """The path count of block ``index``: _BLOCK, or fewer in a ragged last block."""
    return min(_BLOCK, n_paths - index * _BLOCK)


def _draw(rng: np.random.Generator, seed: int, block: int, step: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out``, the (2, w) draws of step ``step`` of path block
    ``block``, and return it: row r takes the first w normals of the
    Philox substream with key (seed mod 2^64) 2^64 + block and counter
    (step << 192) | (r << 128), into which ``rng``, the caller's own
    generator, is re-keyed.  A block so draws for its own paths only, and
    a column's draws do not depend on the block's width."""
    key = [block, int(seed) % (1 << 64)]
    for row, normals in enumerate(out):
        # the state of a new Philox(key=key, counter=counter), in 64-bit
        # words low first; assigning it costs a fifth of building one
        rng.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": [0, 0, row, step], "key": key},
                                   "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        rng.standard_normal(out=normals)
    return out


class _Ring:
    """The draws of one block, filled ahead by a drawer and taken in order by
    the block's stepper, in two (2, width) buffers that pass between them
    through two queues, ``free`` and ``full``.  The drawer owns the ring's
    generator.  ``None`` in a queue ends the wait on the other side: the
    stepper puts it on ``free`` when it is done with the block, finished or
    failed, and the drawer then stops; the drawer puts it on ``full`` when
    its draws fail, and the stepper then re-raises the drawer's error."""

    def __init__(self, config: McConfig, index: int) -> None:
        self.seed, self.index, self.n_steps = config.seed, index, config.n_steps
        self.rng = np.random.Generator(np.random.Philox(key=0))
        self.free, self.full = queue.SimpleQueue(), queue.SimpleQueue()
        self.error: BaseException | None = None
        for _ in range(2):
            self.free.put(np.empty((2, _width(config.n_paths, index))))

    def fill(self) -> None:
        """The drawer: one step's draws per free buffer, n_steps in all."""
        try:
            for step in range(self.n_steps):
                zb = self.free.get()
                if zb is None:
                    return
                # the fill releases the GIL, so it overlaps the stepper's arithmetic
                self.full.put(_draw(self.rng, self.seed, self.index, step, zb))
        except BaseException as exc:
            self.error = exc
            self.full.put(None)
            raise


class _Block:
    """A path block part-way through its steps: its width (_BLOCK, or fewer
    paths in a ragged last block), the steps it has taken, its sampling
    rows and, when a drawer fills its draws, its ring.  A block may be
    started on one worker and finished on another."""

    __slots__ = ("index", "width", "step", "ring", "rows")

    def __init__(self, index: int, config: McConfig, v0: float, aux: bool, ring: _Ring | None) -> None:
        self.index, self.ring, self.step = index, ring, 0
        self.width = _width(config.n_paths, index)
        self.rows = [_Row(v0, aux, self.width) for _ in range(2 if config.antithetic else 1)]


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

    Each step draws the block's own ``block.width`` columns of each row
    (:func:`_draw`) and runs its maps on that many columns of the buffers,
    which are as wide as the widest block the stepper steps.  Every map is
    elementwise and every row of draws its own substream, so a column's
    values do not depend on the width.
    """

    def __init__(self, model: LsvModel, config: McConfig, aux_const_vol: float | None,
                 s_out: np.ndarray, v_out: np.ndarray, aux_out: np.ndarray | None, rings: list[_Ring],
                 width: int) -> None:
        self.model, self.config, self.aux_const_vol = model, config, aux_const_vol
        self.outputs = (s_out, v_out, aux_out)
        self.rings, self.width = rings, width
        self.rng = np.random.Generator(np.random.Philox(key=0))
        self.dt = config.maturity / config.n_steps
        self.sq_dt = math.sqrt(self.dt)
        self.rho_perp = math.sqrt(1.0 - model.rho * model.rho)
        self.carry = (model.r - model.q) * self.dt
        if aux_const_vol is not None:
            self.aux_drift = self.carry - 0.5 * aux_const_vol**2 * self.dt
        # the draw buffer of the blocks this worker draws for itself, made
        # on the first such step: a ring-fed block brings its own buffers
        self.zb = None
        self.buffers = [np.empty(width) for _ in range(4)]

    def start(self, index: int) -> _Block:
        ring = self.rings[index] if index < len(self.rings) else None
        return _Block(index, self.config, self.model.v0, self.aux_const_vol is not None, ring)

    def advance(self, block: _Block, steps: int) -> _Block:
        ring, width = block.ring, block.width
        # eta, a temporary, sqrt(V+) and dw, at the block's width
        work = [a[:width] for a in self.buffers]
        _, tmp, _, dw = work
        for _ in range(steps):
            if ring is None:
                if self.zb is None:
                    self.zb = np.empty((2, self.width))
                zb = _draw(self.rng, self.config.seed, block.index, block.step, self.zb[:, :width])
            else:
                zb = ring.full.get()
                if zb is None:
                    raise ring.error
            block.step += 1
            z, b = zb
            np.multiply(z, self.model.rho, out=tmp)
            np.multiply(b, self.rho_perp, out=dw)
            np.add(tmp, dw, out=dw)
            np.multiply(dw, self.sq_dt, out=dw)
            plain, *mirrored = block.rows
            self._step(plain, z, work, np.add)
            for row in mirrored:
                # the partner steps on -z and -dw: z is negated for the
                # variance step, and dw enters by subtraction
                np.negative(z, out=z)
                self._step(row, z, work, np.subtract)
            if ring is not None:
                ring.free.put(zb)
        return block

    def _step(self, row: _Row, z: np.ndarray, work: list[np.ndarray], shift) -> None:
        """Step one row on the increments dw of this step, which enter
        through ``shift``: np.add for the plain row, np.subtract for its
        mirrored partner.  ``work`` holds eta, a temporary, sqrt(V+) and
        dw, all as wide as the row."""
        model, dt = self.model, self.dt
        eta, tmp, sqrt_v, dw = work
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
        (rows, n_paths) outputs, which its rows are exactly as wide as."""
        s_out, v_out, aux_out = self.outputs
        lo = block.index * _BLOCK
        cols = slice(lo, lo + block.width)
        s0 = self.model.s0
        for r, row in enumerate(block.rows):
            # a path truncated at 0 ends at 1e-300; exact steps stay positive
            np.maximum(row.v_pos, 1e-300, out=v_out[r, cols])
            s = s_out[r, cols]
            np.multiply(np.exp(row.log_m, out=s), s0, out=s)
            if aux_out is not None:
                aux = aux_out[r, cols]
                np.multiply(np.exp(row.log_aux, out=aux), s0, out=aux)


def _worker_count() -> int:
    """Every CPU this process may run on: its affinity mask where the OS
    has one (so taskset or a cpuset narrows it), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cuts(n_paths: int, n_steps: int, steppers: int) -> list[int]:
    """The bounds of the stepping workers' shares of the block-major
    sequence of block-steps: worker w runs block-steps [cuts[w], cuts[w + 1]).

    While blocks outnumber the workers, the shares are of equal cost.  A
    block-step's draws and arithmetic both run at the block's width, so it
    costs its width, and a ragged last block costs less per step than a
    full one.  Cut w falls at the last block-step by which at most
    w / steppers of the total cost is spent, so each share is within one
    block-step of its due; with full blocks only, cut w is
    w n_blocks n_steps // steppers.  Otherwise each block has a worker to
    itself."""
    n_blocks = (n_paths + _BLOCK - 1) // _BLOCK
    if n_blocks <= steppers:
        return [w * n_steps for w in range(steppers + 1)]
    # costs in column-steps, so that the arithmetic is exact
    full, last = _BLOCK, _width(n_paths, n_blocks - 1)
    head = (n_blocks - 1) * n_steps  # the block-steps of the full blocks
    total = head * full + n_steps * last
    cuts = []
    for w in range(steppers + 1):
        # the cut's cost times steppers may not exceed w total
        spend = w * total
        if spend <= head * full * steppers:
            cuts.append(spend // (steppers * full))
        else:
            cuts.append(head + (spend - head * full * steppers) // (steppers * last))
    return cuts


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
    per block, at equal shares of their cost (:func:`_cuts`), in which a
    ragged last block, stepped at its own width, counts for less; a block
    cut by a range boundary is started on one worker and finished on the
    next.  CPUs beyond the blocks become drawers, at most one per block (so
    the pool is min(cpus, 2 n_blocks)): a drawer fills its block's normals
    from the block's substreams a step ahead of the block's worker.
    Hand-overs go through queues under the exit rule of the module
    docstring, so a failed task ends the run with its error rather than
    leaving another waiting.  Every block-step draws from its own
    substreams and every block takes its steps in order, so the output is
    bit-identical for any CPU count.  ``aux_const_vol`` additionally
    evolves a constant-vol GBM from the same Brownian increments (a control
    variate with known Black price).
    """
    n_blocks = (config.n_paths + _BLOCK - 1) // _BLOCK
    # the plain paths first, their antithetic partners second
    shape = (2 if config.antithetic else 1, config.n_paths)
    s, v = np.empty(shape), np.empty(shape)
    aux = np.empty(shape) if aux_const_vol is not None else None
    cpus = _worker_count()
    steppers = min(cpus, n_blocks)
    # with a CPU spare, worker w steps block w alone and ring w feeds it
    rings = [_Ring(config, index) for index in range(min(cpus, 2 * n_blocks) - steppers)]
    cuts = _cuts(config.n_paths, config.n_steps, steppers)
    # queue w carries the block that worker w - 1 starts and worker w finishes
    handoff = [queue.SimpleQueue() for _ in range(steppers + 1)]

    def work(w: int) -> None:
        try:
            # the first block of a share is its widest
            width = _width(config.n_paths, cuts[w] // config.n_steps)
            stepper = _Stepper(model, config, aux_const_vol, s, v, aux, rings, width)
            _run_share(stepper, cuts[w], cuts[w + 1], handoff, w)
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
    forward S0 e^{(r-q)T}, with S0 as reference level, as in the rate solver.
    VIX options are written on the short-horizon proxy eta(S_T) sqrt(V_T); it
    has no closed-form forward, so they quote off its sample mean, with the VIX
    spot as reference level.  This is the one place that tells the products apart.
    """
    model = samples.model
    if product == "european":
        forward = model.s0 * math.exp((model.r - model.q) * samples.config.maturity)
        return samples.terminal_s, forward, model.s0, False
    if product == "vix":
        log_m = np.log(samples.terminal_s / model.s0)
        values = model.local_vol.eta(log_m) * np.sqrt(samples.terminal_v)
        return values, float(values.mean()), vix_spot(model), True
    raise ValueError("product must be 'european' or 'vix'")


def terminal_values(samples: McSamples, product: str) -> np.ndarray:
    """Per-path value at maturity of the product's underlying: S_T for
    European options, the VIX proxy eta(S_T) sqrt(V_T) for VIX options."""
    return _underlying(samples, product)[0]


def _payoff(values: np.ndarray, strike: float, is_call: bool) -> np.ndarray:
    """The undiscounted payoff of each path."""
    return np.maximum(values - strike, 0.0) if is_call else np.maximum(strike - values, 0.0)


def _payoff_samples(payoff: np.ndarray, antithetic: bool) -> np.ndarray:
    """The independent samples of a per-path payoff: itself, or its pair averages
    for antithetic samples, so that an error bar reflects the paired estimator."""
    half = payoff.size // 2
    return 0.5 * (payoff[:half] + payoff[half:]) if antithetic else payoff


def _standard_error(samples: np.ndarray) -> float:
    return float(samples.std(ddof=1) / math.sqrt(samples.size))


def _payoff_estimate(payoff: np.ndarray, antithetic: bool) -> PriceEstimate:
    """Undiscounted mean payoff with its standard error."""
    samples = _payoff_samples(payoff, antithetic)
    return PriceEstimate(float(samples.mean()), _standard_error(samples), samples.size)


def price(samples: McSamples, product: str, strike: float, is_call: bool) -> PriceEstimate:
    """European or VIX-proxy option price from the samples, discounted at
    the model rate over the simulated maturity."""
    if strike < 0.0:
        raise ValueError("strike must be nonnegative")
    est = _payoff_estimate(_payoff(terminal_values(samples, product), strike, is_call), samples.config.antithetic)
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
    so the band is the standard error of that difference, taken from the
    strike's one payoff array.  Log-moneyness is on the reference level.
    Strikes whose price falls outside the arbitrage band are returned with a
    skip reason instead of a vol.
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
        payoff = _payoff(values, k, is_call)
        est = _payoff_estimate(payoff, antithetic)
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
                payoff -= delta * values
                error = _standard_error(_payoff_samples(payoff, antithetic))
            band = error / vega if vega > 0.0 else math.nan
        out.append(SmilePoint(strike=float(k), log_moneyness=log_m,
                              price=est.value / undiscount, std_error=est.std_error / undiscount,
                              implied_vol=vol, iv_low=vol - band, iv_high=vol + band,
                              skip_reason=reason))
    return out
