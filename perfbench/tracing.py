"""Tracing from outside the package.

:func:`instrument` rebinds the public functions of each module, at the
module attributes the package actually calls through, to wrappers that
record spans (name, start, end, parent, command id) or plain call counts.
Spans are kept in memory and written out after the traced pass.  Nothing
under ``src/`` changes; leaving the context manager restores every binding.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from lsv_shortmat import black_scholes, cli, hartman_watson, heston_rate, mc_engine, rate_solver

EXPANSIONS = ("european_expansion_sabr_type", "european_expansion_heston_type",
              "vix_expansion_sabr_type", "vix_expansion_heston_type")


class Tracer:
    """In-memory span and counter store for one traced pass (single thread)."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.command: list[int] = []
        self.stack: list[int] = []
        self.command_id = -1
        self.counts: Counter = Counter()
        # small per-call records kept from selected results
        self.records: dict[str, list] = defaultdict(list)

    def span(self, name: str, fn, keep=None):
        """Wrap ``fn`` so that each call records a span; ``keep`` maps the
        result to a record stored under ``name``."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.command.append(self.command_id)
            self.end.append(math.nan)
            self.stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self.stack.pop()
            if keep is not None:
                self.records[name].append(keep(result))
            return result

        return wrapped

    def counter(self, name: str, fn):
        """Wrap ``fn`` so that each call only increments a counter."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (a span's
        duration minus the durations of its child spans)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, n in enumerate(self.name):
            calls[n] += 1
            total[n] += dur[i]
            self_s[n] += dur[i] - child[i]
        return calls, total, self_s

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.name, self.start, self.end) if n == name]

    def write(self, path: str) -> None:
        """Write the spans as tab-separated lines, times relative to the
        first span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tcommand\n")
            for i, (n, s, e, p, c) in enumerate(zip(self.name, self.start, self.end, self.parent, self.command)):
                fh.write(f"{i}\t{n}\t{s - t0:.9f}\t{e - t0:.9f}\t{p}\t{c}\n")


def _rate_record(point):
    return (point.iterations, point.converged, point.boundary_hit)


def _sim_record(samples):
    cfg = samples.config
    return (samples.v_scheme, cfg.n_paths, cfg.n_steps, cfg.seed, cfg.antithetic)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the tracing wrappers; the original bindings come back on exit."""
    t = tracer
    plan = [
        # (module, attribute, wrapper)
        (cli, "european_rate", t.span("rate_solver.european_rate", cli.european_rate, _rate_record)),
        (cli, "vix_rate", t.span("rate_solver.vix_rate", cli.vix_rate, _rate_record)),
        (rate_solver, "integral_IS", t.span("rate_solver.integral_IS", rate_solver.integral_IS)),
        (rate_solver, "eta_sq_inverse", t.span("model.eta_sq_inverse", rate_solver.eta_sq_inverse)),
        (rate_solver, "h_lognormal", t.span("hartman_watson.h_lognormal", rate_solver.h_lognormal)),
        (rate_solver, "h_heston", t.span("heston_rate.h_heston", rate_solver.h_heston)),
        (rate_solver, "minimize", t.counter("rate_solver.minimize", rate_solver.minimize)),
        (rate_solver, "minimize_scalar", t.counter("rate_solver.minimize_scalar", rate_solver.minimize_scalar)),
        (hartman_watson, "hw_F", t.span("hartman_watson.hw_F", hartman_watson.hw_F)),
        (heston_rate, "rate_IH_series", t.counter("heston_rate.rate_IH_series", heston_rate.rate_IH_series)),
        (heston_rate, "rate_IH_numeric", t.counter("heston_rate.rate_IH_numeric", heston_rate.rate_IH_numeric)),
        (heston_rate, "legendre_point", t.span("heston_rate.legendre_point", heston_rate.legendre_point,
                                                lambda pt: pt.iterations)),
        (heston_rate, "cumulant", t.counter("heston_rate.cumulant", heston_rate.cumulant)),
        (heston_rate, "minimize", t.counter("heston_rate.minimize", heston_rate.minimize)),
        (cli, "simulate_paths", t.span("mc_engine.simulate_paths", cli.simulate_paths, _sim_record)),
        (cli, "smile_from_mc", t.span("mc_engine.smile_from_mc", cli.smile_from_mc)),
        (mc_engine, "implied_vol", t.span("black_scholes.implied_vol", mc_engine.implied_vol)),
        (black_scholes, "black_price", t.counter("black_scholes.black_price", black_scholes.black_price)),
    ]
    plan += [(cli, name, t.span("smile.expansion", getattr(cli, name))) for name in EXPANSIONS]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in plan]
    try:
        for mod, attr, wrapper in plan:
            setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)


def rng_replay_seconds(sim_records) -> float:
    """Time the Philox ``standard_normal((2, block))`` draws the traced
    simulations made, replayed with the same keys and block layout as
    :mod:`lsv_shortmat.mc_engine`.  Computed, not traced."""
    block = mc_engine._BLOCK
    start = time.perf_counter()
    for _scheme, n_paths, n_steps, seed, antithetic in sim_records:
        for bi in range((n_paths + block - 1) // block):
            key = (int(seed) % (1 << 64)) * (1 << 64) + bi
            for _ in range(2 if antithetic else 1):
                rng = np.random.Generator(np.random.Philox(key=key))
                for _ in range(n_steps):
                    rng.standard_normal((2, block))
    return time.perf_counter() - start


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, untraced_wall_s: float, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, by the names BENCHMARK.json lists."""
    calls, total, self_s = tracer.totals()
    c = tracer.counts
    solves = calls["rate_solver.european_rate"] + calls["rate_solver.vix_rate"]
    points = tracer.records["rate_solver.european_rate"] + tracer.records["rate_solver.vix_rate"]
    solve_ms = sorted(1e3 * d for n in ("rate_solver.european_rate", "rate_solver.vix_rate")
                      for d in tracer.durations(n))
    sims = tracer.records["mc_engine.simulate_paths"]
    sim_durs = tracer.durations("mc_engine.simulate_paths")
    steps_by_scheme: dict[str, float] = defaultdict(float)
    secs_by_scheme: dict[str, float] = defaultdict(float)
    for (scheme, n_paths, n_steps, _seed, _anti), d in zip(sims, sim_durs):
        steps_by_scheme[scheme] += n_paths * n_steps
        secs_by_scheme[scheme] += d
    rng_s = rng_replay_seconds(sims)
    legendre_iters = tracer.records["heston_rate.legendre_point"]
    h_heston_calls = calls["heston_rate.h_heston"]
    m = {
        "cli.self_s": self_s["cli.main"],
        "model.eta_sq_inverse.calls": calls["model.eta_sq_inverse"],
        "model.eta_sq_inverse.s": total["model.eta_sq_inverse"],
        "rate_solver.integral_IS.calls": calls["rate_solver.integral_IS"],
        "rate_solver.integral_IS.s": total["rate_solver.integral_IS"],
        "rate_solver.european_rate.calls": calls["rate_solver.european_rate"],
        "rate_solver.vix_rate.calls": calls["rate_solver.vix_rate"],
        "rate_solver.solves": solves,
        "rate_solver.solve_ms.p50": _quantile(solve_ms, 0.5),
        "rate_solver.solve_ms.p90": _quantile(solve_ms, 0.9),
        "rate_solver.solve_ms.max": solve_ms[-1] if solve_ms else 0.0,
        "rate_solver.solve.self_s": self_s["rate_solver.european_rate"] + self_s["rate_solver.vix_rate"],
        "rate_solver.objective_evals_per_solve": _ratio(
            calls["hartman_watson.h_lognormal"] + h_heston_calls, solves),
        "rate_solver.iterations.mean": _ratio(sum(p[0] for p in points), len(points)),
        "rate_solver.nelder_mead.runs": c["rate_solver.minimize"],
        "rate_solver.scalar_min.runs": c["rate_solver.minimize_scalar"],
        "rate_solver.nonconverged": sum(1 for p in points if not p[1]),
        "rate_solver.boundary_hits": sum(1 for p in points if p[2]),
        "hartman_watson.h_lognormal.calls": calls["hartman_watson.h_lognormal"],
        "hartman_watson.hw_F.calls": calls["hartman_watson.hw_F"],
        "hartman_watson.hw_F.s": total["hartman_watson.hw_F"],
        "heston_rate.h_heston.calls": h_heston_calls,
        "heston_rate.series_share": _ratio(c["heston_rate.rate_IH_series"], h_heston_calls),
        "heston_rate.legendre_point.calls": calls["heston_rate.legendre_point"],
        "heston_rate.legendre_point.s": total["heston_rate.legendre_point"],
        "heston_rate.legendre_point.iters_mean": _ratio(sum(legendre_iters), len(legendre_iters)),
        "heston_rate.cumulant.calls": c["heston_rate.cumulant"],
        "heston_rate.nelder_mead_fallbacks": c["heston_rate.minimize"],
        "smile.expansion.s": total["smile.expansion"],
        "mc_engine.simulate_paths.s": total["mc_engine.simulate_paths"],
        "mc_engine.path_steps_per_s.exact-gbm": _ratio(steps_by_scheme["exact-gbm"],
                                                        secs_by_scheme["exact-gbm"]),
        "mc_engine.path_steps_per_s.euler-full-truncation": _ratio(
            steps_by_scheme["euler-full-truncation"], secs_by_scheme["euler-full-truncation"]),
        "mc_engine.rng_s": rng_s,
        "mc_engine.step_arith_s": total["mc_engine.simulate_paths"] - rng_s,
        "mc_engine.smile_from_mc.self_s": self_s["mc_engine.smile_from_mc"],
        "black_scholes.implied_vol.calls": calls["black_scholes.implied_vol"],
        "black_scholes.implied_vol.s": total["black_scholes.implied_vol"],
        "black_scholes.black_price.per_inversion": _ratio(c["black_scholes.black_price"],
                                                          calls["black_scholes.implied_vol"]),
        "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
        "trace.spans": len(tracer.start),
    }
    return {k: float(v) for k, v in m.items()}


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(100 * q) - 1]
