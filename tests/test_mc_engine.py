import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from lsv_shortmat import mc_engine
from lsv_shortmat.mc_engine import (
    McConfig,
    default_strike_grid,
    price,
    proxy_error_bounds,
    simulate_paths,
    smile_from_mc,
    terminal_values,
    vix_exact_meanrev,
)
from lsv_shortmat.model import (
    ConstantDrift,
    ConstantLocalVol,
    LognormalVolOfVol,
    LsvModel,
    MeanRevertingDrift,
    SquareRootVolOfVol,
    TanhLocalVol,
    TaylorLocalVol,
    ZeroDrift,
)
from lsv_shortmat.smile import VixMapping

TANH = TanhLocalVol(1.0, -0.5, 0.0)


def table_model(rho, **kw):
    base = dict(s0=1.0, v0=0.1, rho=rho, local_vol=TANH, vol_of_vol=LognormalVolOfVol(2.0))
    base.update(kw)
    return LsvModel(**base)


# runs scenario argv[2], a function of test file argv[1], on the JSON
# arguments argv[3] and a fresh monkeypatch
CHILD = """
import functools, importlib.util, json, sys
import pytest
spec = importlib.util.spec_from_file_location("scenarios", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
scenario = functools.reduce(getattr, sys.argv[2].split("."), module)
with pytest.MonkeyPatch.context() as monkeypatch:
    scenario(monkeypatch, *json.loads(sys.argv[3]))
"""


def _in_child(seconds, scenario, *args):
    """``scenario(monkeypatch, *args)``, with its assertions, in a new
    interpreter that must end within ``seconds``.  A lost hand-over then
    fails the test and the child is killed; in this process the pool
    threads left waiting would keep pytest from exiting."""
    proc = subprocess.run([sys.executable, "-c", CHILD, __file__, scenario.__qualname__, json.dumps(args)],
                          capture_output=True, text=True, timeout=seconds,
                          env=dict(os.environ, PYTHONPATH=str(Path(mc_engine.__file__).parents[1])))
    assert proc.returncode == 0, proc.stderr


class TestMcConfig:
    @pytest.mark.parametrize("maturity", [math.nan, math.inf, 0.0, -0.1])
    def test_maturity_must_be_positive_and_finite(self, maturity):
        with pytest.raises(ValueError, match="maturity must be positive and finite"):
            McConfig(n_paths=1_000, n_steps=5, maturity=maturity, seed=1)

    @pytest.mark.parametrize("field, value", [
        ("n_paths", 20_000.0), ("n_paths", True), ("n_steps", 2.5), ("n_steps", True), ("seed", 1.5),
        ("seed", False), ("seed", "1"),
    ])
    def test_counts_and_seed_must_be_integers(self, field, value):
        kwargs = dict(n_paths=1_000, n_steps=5, maturity=0.1, seed=1)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            McConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        config = McConfig(n_paths=np.int64(1_000), n_steps=np.int32(5), maturity=0.1, seed=np.uint64(1))
        assert simulate_paths(table_model(0.0), config).terminal_s.shape == (1_000,)


class TestSimulatePaths:
    def test_deterministic_bytes(self):
        model = table_model(-0.7)
        config = McConfig(n_paths=20_000, n_steps=50, maturity=1 / 12, seed=99)
        a = simulate_paths(model, config)
        b = simulate_paths(model, config)
        assert a.terminal_s.tobytes() == b.terminal_s.tobytes()
        assert a.terminal_v.tobytes() == b.terminal_v.tobytes()

    def test_path_prefix_independent_of_n_paths(self):
        model = table_model(0.0)
        small = simulate_paths(model, McConfig(n_paths=1_000, n_steps=20, maturity=0.1, seed=5))
        large = simulate_paths(model, McConfig(n_paths=30_000, n_steps=20, maturity=0.1, seed=5))
        np.testing.assert_array_equal(small.terminal_s, large.terminal_s[:1_000])
        np.testing.assert_array_equal(small.terminal_v, large.terminal_v[:1_000])

    @staticmethod
    def _sample_bytes(samples):
        return [a.tobytes() for a in (samples.terminal_s, samples.terminal_v, samples.terminal_s_aux)]

    def test_worker_count_invariance(self, monkeypatch):
        # 40_001 paths leave a ragged last block; every output array is compared
        model = table_model(0.3)
        config = McConfig(n_paths=40_001, n_steps=25, maturity=0.1, seed=11, antithetic=True)
        pools, runs = [], []

        def pool(max_workers):
            pools.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(mc_engine, "ThreadPoolExecutor", pool)
        for cpus in (1, 4):
            monkeypatch.setattr(mc_engine.os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                                raising=False)
            runs.append(self._sample_bytes(simulate_paths(model, config, aux_const_vol=0.3)))
        # one stepping worker per usable CPU, never more than the 3 blocks,
        # and a drawer for one block on the fourth CPU
        assert pools == [1, 4]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("blocks, cpus, drawn_ahead", [
        (1, 1, []), (1, 2, [0]), (1, 8, [0]), (2, 3, [0]), (2, 8, [0, 1]), (3, 4, [0]), (7, 2, []),
    ])
    def test_drawers_take_the_spare_cpus(self, monkeypatch, blocks, cpus, drawn_ahead):
        # a drawer for blocks 0, 1, ... while CPUs are left over after one
        # stepping worker per block, never two for one block
        filled = []
        original = mc_engine._Ring.fill

        def fill(ring):
            filled.append(ring.index)
            original(ring)

        monkeypatch.setattr(mc_engine._Ring, "fill", fill)
        _on_cpus(monkeypatch, cpus)
        simulate_paths(table_model(0.0), McConfig(blocks * mc_engine._BLOCK, 2, 0.1, 1))
        assert sorted(filled) == drawn_ahead

    def test_worker_count_without_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(mc_engine.os, "sched_getaffinity", raising=False)
        for reported, workers in ((6, 6), (None, 1)):
            monkeypatch.setattr(mc_engine.os, "cpu_count", lambda r=reported: r)
            assert mc_engine._worker_count() == workers

    def test_more_workers_than_cores(self):
        # 9 blocks on 9 stepping workers, 7 of them fed by drawers, with
        # frequent thread switches: each block must still land in its own
        # columns
        _in_child(120, self.pooled_matches_serial, 16)

    def test_split_blocks_on_more_workers_than_cores(self):
        # 9 blocks on 4 workers, which hand blocks 4 and 6 on part-way: no
        # worker may wait for a handoff forever
        _in_child(120, self.pooled_matches_serial, 4)

    @staticmethod
    def pooled_matches_serial(monkeypatch, cpus):
        model = table_model(-0.7)
        config = McConfig(n_paths=8 * 16384 + 1, n_steps=2, maturity=0.1, seed=3, antithetic=True)
        monkeypatch.setattr(mc_engine.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = TestSimulatePaths._sample_bytes(simulate_paths(model, config, aux_const_vol=0.2))
        monkeypatch.setattr(mc_engine.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = TestSimulatePaths._sample_bytes(simulate_paths(model, config, 0.2))
        finally:
            sys.setswitchinterval(interval)
        assert pooled == serial

    def test_sample_digest_pinned(self):
        # sha256 of a small ragged antithetic run with a control variate, as
        # the block-list gather produced it before blocks wrote in place
        model = table_model(0.3)
        config = McConfig(n_paths=20_001, n_steps=5, maturity=0.1, seed=11, antithetic=True)
        digest = hashlib.sha256()
        for chunk in self._sample_bytes(simulate_paths(model, config, aux_const_vol=0.3)):
            digest.update(chunk)
        assert digest.hexdigest() == "a9cb0722313b7135bf981a5da4f57f5fb615fb1164f487e1530b8c28d7924f83"

    def test_antithetic_layout(self):
        model = table_model(0.0)
        config = McConfig(n_paths=500, n_steps=10, maturity=0.1, seed=1, antithetic=True)
        s = simulate_paths(model, config)
        assert s.terminal_s.shape == (1000,)
        assert np.all(s.terminal_s > 0) and np.all(s.terminal_v > 0)

    def test_degenerate_vol_of_vol_lognormal_law(self):
        # vanishing vol-of-vol: exact lognormal terminal law for constant eta
        model = table_model(0.0, local_vol=ConstantLocalVol(),
                            vol_of_vol=LognormalVolOfVol(1e-12), v0=0.04)
        t = 0.5
        s = simulate_paths(model, McConfig(n_paths=50_000, n_steps=20, maturity=t, seed=3))
        logs = np.log(s.terminal_s)
        se = logs.std(ddof=1) / math.sqrt(logs.size)
        assert abs(logs.mean() - (-0.5 * 0.04 * t)) <= 3 * se
        assert logs.std(ddof=1) == pytest.approx(math.sqrt(0.04 * t), rel=0.02)

    def test_martingale(self):
        model = table_model(-0.7)
        s = simulate_paths(model, McConfig(n_paths=100_000, n_steps=100, maturity=1 / 12, seed=7))
        se = s.terminal_s.std(ddof=1) / math.sqrt(s.terminal_s.size)
        assert abs(s.terminal_s.mean() - 1.0) <= 4 * se

    def test_exact_gbm_variance_moments(self):
        # V is stepped exactly: terminal V matches the lognormal law
        model = table_model(0.0)
        t = 1 / 12
        s = simulate_paths(model, McConfig(n_paths=100_000, n_steps=10, maturity=t, seed=13))
        logs = np.log(s.terminal_v / 0.1)
        se = logs.std(ddof=1) / math.sqrt(logs.size)
        assert abs(logs.mean() + 0.5 * 4.0 * t) <= 4 * se
        assert logs.std(ddof=1) == pytest.approx(2.0 * math.sqrt(t), rel=0.02)

    def test_carry_drift(self):
        model = table_model(0.0, r=0.05, q=0.01)
        t = 0.25
        s = simulate_paths(model, McConfig(n_paths=100_000, n_steps=50, maturity=t, seed=21))
        se = s.terminal_s.std(ddof=1) / math.sqrt(s.terminal_s.size)
        assert abs(s.terminal_s.mean() - math.exp((0.05 - 0.01) * t)) <= 4 * se

    def test_v_scheme_flags(self):
        exact = simulate_paths(table_model(0.0), McConfig(1000, 5, 0.1, 1))
        assert exact.v_scheme == "exact-gbm"
        heston = simulate_paths(
            table_model(0.0, vol_of_vol=SquareRootVolOfVol(0.5, drift=MeanRevertingDrift(2.0, 0.1))),
            McConfig(1000, 5, 0.1, 1))
        assert heston.v_scheme == "euler-full-truncation"
        mr_ln = simulate_paths(
            table_model(0.0, vol_of_vol=LognormalVolOfVol(0.5, drift=MeanRevertingDrift(2.0, 0.1))),
            McConfig(1000, 5, 0.1, 1))
        assert mr_ln.v_scheme == "euler-full-truncation"

    def test_heston_variance_mean_reversion(self):
        # full-truncation Euler on a CIR factor: mean should pull towards b
        model = table_model(0.0, vol_of_vol=SquareRootVolOfVol(0.3, drift=MeanRevertingDrift(a=5.0, b=0.2)))
        s = simulate_paths(model, McConfig(n_paths=50_000, n_steps=200, maturity=1.0, seed=17))
        expected = 0.2 + (0.1 - 0.2) * math.exp(-5.0)
        assert s.terminal_v.mean() == pytest.approx(expected, rel=0.02)

    def test_aux_control_variate_track(self):
        model = table_model(0.0)
        cfg = McConfig(n_paths=30_000, n_steps=50, maturity=1 / 12, seed=29)
        s = simulate_paths(model, cfg, aux_const_vol=math.sqrt(0.1))
        assert s.terminal_s_aux is not None and s.terminal_s_aux.shape == s.terminal_s.shape
        # the auxiliary GBM is exactly lognormal with the constant vol
        logs = np.log(s.terminal_s_aux)
        assert logs.std(ddof=1) == pytest.approx(math.sqrt(0.1 / 12), rel=0.02)
        # driven by the same increments: highly correlated with the LSV spot
        corr = np.corrcoef(np.log(s.terminal_s), logs)[0, 1]
        assert corr > 0.97


ORACLE_DRIFTS = {
    ZeroDrift: lambda d, v: 0.0,
    ConstantDrift: lambda d, v: d.mu * v,
    MeanRevertingDrift: lambda d, v: d.a * (d.b - v),
}


def _oracle_variance_step(vv, v, v_pos, z, dt):
    """The variance step as one expression per scheme, returning (V, V+)."""
    mu = vv.drift.constant_mu() if type(vv) is LognormalVolOfVol else None
    sq_dt = math.sqrt(dt)
    if mu is not None:
        v = v * np.exp((mu - 0.5 * vv.sigma * vv.sigma) * dt + vv.sigma * sq_dt * z)
        return v, v
    scale = v_pos if type(vv) is LognormalVolOfVol else np.sqrt(v_pos)
    v = v + ORACLE_DRIFTS[type(vv.drift)](vv.drift, v_pos) * dt + vv.sigma * scale * sq_dt * z
    return v, np.maximum(v, 0.0)


def _oracle_paths(model, config, aux_const_vol=None):
    """The engine's step as plain numpy expressions, each block and each
    antithetic row from a fresh generator, one block after another: the
    oracle that the fused, buffered and scheduled step must match bit for bit."""
    block = mc_engine._BLOCK
    rows = 2 if config.antithetic else 1
    s, v_out = np.empty((rows, config.n_paths)), np.empty((rows, config.n_paths))
    aux = np.empty((rows, config.n_paths)) if aux_const_vol is not None else None
    dt = config.maturity / config.n_steps
    sq_dt = math.sqrt(dt)
    rho = model.rho
    rho_perp = math.sqrt(1.0 - rho * rho)
    carry = (model.r - model.q) * dt
    for bi in range((config.n_paths + block - 1) // block):
        key = (config.seed % (1 << 64)) * (1 << 64) + bi
        cols = slice(bi * block, min((bi + 1) * block, config.n_paths))
        width = cols.stop - cols.start
        for row, sign in enumerate((1.0, -1.0)[:rows]):
            rng = np.random.Generator(np.random.Philox(key=key))
            log_m = np.zeros(block)
            v = v_pos = np.full(block, model.v0)
            log_aux = np.zeros(block)
            for _ in range(config.n_steps):
                zb = rng.standard_normal((2, block))
                z = sign * zb[0]
                b = sign * zb[1]
                dw = sq_dt * (rho * z + rho_perp * b)
                eta = model.local_vol.eta(log_m)
                loc_var = eta * eta * v_pos
                log_m += carry - 0.5 * loc_var * dt + eta * np.sqrt(v_pos) * dw
                if aux is not None:
                    log_aux += carry - 0.5 * aux_const_vol**2 * dt + aux_const_vol * dw
                v, v_pos = _oracle_variance_step(model.vol_of_vol, v, v_pos, z, dt)
            v_out[row, cols] = np.maximum(v_pos, 1e-300)[:width]
            s[row, cols] = (model.s0 * np.exp(log_m))[:width]
            if aux is not None:
                aux[row, cols] = (model.s0 * np.exp(log_aux))[:width]
    return [a.reshape(-1).tobytes() if a is not None else None for a in (s, v_out, aux)]


ORACLE_LOCAL_VOLS = {"tanh": TanhLocalVol(1.0, -0.5, 0.1), "taylor": TaylorLocalVol(0.9, -0.3, 0.2, 0.05),
                     "constant": ConstantLocalVol()}
ORACLE_VOLS_OF_VOL = {
    "lognormal-exact": LognormalVolOfVol(2.0, drift=ConstantDrift(0.3)),
    "lognormal-euler": LognormalVolOfVol(1.5, drift=MeanRevertingDrift(2.0, 0.1)),
    "square-root": SquareRootVolOfVol(0.9, drift=MeanRevertingDrift(3.0, 0.08)),
}
# 5 blocks, the last ragged, of 3 steps: 2, 3 and 4 workers split blocks
# part-way, 8 CPUs give one worker per block and drawers to three of them
ORACLE_CONFIG = dict(n_paths=4 * mc_engine._BLOCK + 77, n_steps=3, maturity=0.1, seed=23)


def _on_cpus(monkeypatch, n):
    monkeypatch.setattr(mc_engine.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _engine_bytes(model, config, aux_const_vol):
    out = simulate_paths(model, config, aux_const_vol=aux_const_vol)
    return [a.tobytes() if a is not None else None for a in (out.terminal_s, out.terminal_v, out.terminal_s_aux)]


class TestFusedStepOracle:
    @pytest.mark.parametrize("vol_of_vol", sorted(ORACLE_VOLS_OF_VOL))
    @pytest.mark.parametrize("local_vol", sorted(ORACLE_LOCAL_VOLS))
    @pytest.mark.parametrize("antithetic, aux_const_vol", [(False, None), (True, 0.3)])
    def test_byte_equal_to_the_plain_expressions(self, monkeypatch, local_vol, vol_of_vol, antithetic,
                                                 aux_const_vol):
        model = table_model(-0.6, local_vol=ORACLE_LOCAL_VOLS[local_vol], vol_of_vol=ORACLE_VOLS_OF_VOL[vol_of_vol],
                            r=0.03, q=0.01)
        config = McConfig(**ORACLE_CONFIG, antithetic=antithetic)
        expected = _oracle_paths(model, config, aux_const_vol)
        for cpus in (1, 2, 3, 8):
            _on_cpus(monkeypatch, cpus)
            assert _engine_bytes(model, config, aux_const_vol) == expected, cpus

    # the Euler drifts the matrix above leaves out
    @pytest.mark.parametrize("drift", [ZeroDrift(), ConstantDrift(0.5)])
    @pytest.mark.parametrize("antithetic, aux_const_vol", [(False, None), (True, None), (False, 0.2), (True, 0.3)])
    @pytest.mark.parametrize("n_paths, n_steps, cpus", [
        (4 * 16384 + 77, 1, 2),  # one step: no block can be split
        (100, 7, 4),  # fewer blocks than CPUs: a drawer feeds the one block
        (3 * 16384, 5, 2),  # no ragged block; 7.5 blocks of steps per worker
        (16384, 6, 2),  # one block and its drawer, one step ahead
        (16384 - 5, 1, 8),  # one step from the drawer; the other 6 CPUs stay idle
        (2 * 16384 + 9, 4, 3),  # block 0 drawer-fed, block 1 drawing its own
    ])
    def test_sizes_and_worker_counts(self, monkeypatch, n_paths, n_steps, cpus, antithetic, aux_const_vol, drift):
        model = table_model(0.4, vol_of_vol=SquareRootVolOfVol(0.7, drift=drift))
        config = McConfig(n_paths=n_paths, n_steps=n_steps, maturity=0.05, seed=5, antithetic=antithetic)
        _on_cpus(monkeypatch, cpus)
        assert _engine_bytes(model, config, aux_const_vol) == _oracle_paths(model, config, aux_const_vol)

    @pytest.mark.parametrize("vol_of_vol", sorted(ORACLE_VOLS_OF_VOL))
    @pytest.mark.parametrize("antithetic, aux_const_vol", [(False, None), (True, None), (False, 0.2), (True, 0.3)])
    def test_ragged_block_steps_only_its_width(self, monkeypatch, vol_of_vol, antithetic, aux_const_vol):
        # every array a step hands to eta and to the variance step is as
        # wide as its block: 77 columns in the ragged last one
        model = table_model(-0.6, vol_of_vol=ORACLE_VOLS_OF_VOL[vol_of_vol])
        spec = type(model.vol_of_vol)
        eta, variance_step = TanhLocalVol.eta, spec.variance_step
        sizes = []

        def eta_spy(self, k, out=None):
            sizes.append({k.size, out.size})
            return eta(self, k, out=out)

        def variance_step_spy(self, *args):
            sizes.append({a.size for a in args if isinstance(a, np.ndarray)})
            return variance_step(self, *args)

        monkeypatch.setattr(TanhLocalVol, "eta", eta_spy)
        monkeypatch.setattr(spec, "variance_step", variance_step_spy)
        _on_cpus(monkeypatch, 2)
        n_steps, rows = 3, 2 if antithetic else 1
        simulate_paths(model, McConfig(2 * mc_engine._BLOCK + 77, n_steps, 0.1, 5, antithetic), aux_const_vol)
        assert all(len(call) == 1 for call in sizes)
        widths = [call.pop() for call in sizes]
        # two calls per row and step: two full blocks and the ragged one
        per_block = 2 * rows * n_steps
        assert sorted(widths) == [77] * per_block + [mc_engine._BLOCK] * (2 * per_block)

    def test_failed_head_releases_the_next_worker(self):
        _in_child(60, self.failed_head_releases_the_next_worker)

    @staticmethod
    def failed_head_releases_the_next_worker(monkeypatch):
        # worker 0 fails while its head block is part-done; worker 1 must
        # not wait for the handoff forever, and the first error surfaces
        model = table_model(0.0)
        config = McConfig(n_paths=3 * mc_engine._BLOCK, n_steps=3, maturity=0.1, seed=1)
        _on_cpus(monkeypatch, 2)
        calls = []
        original = mc_engine._Stepper.advance

        def advance(self, block, steps):
            calls.append((block.index, steps))
            if (block.index, steps) == (1, 1):
                raise FloatingPointError("head failed")
            return original(self, block, steps)

        monkeypatch.setattr(mc_engine._Stepper, "advance", advance)
        with pytest.raises(FloatingPointError, match="head failed"):
            simulate_paths(model, config)
        assert (1, 1) in calls

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_failed_step_stops_its_drawer(self, antithetic):
        _in_child(60, self.failed_step_stops_its_drawer, antithetic)

    @staticmethod
    def failed_step_stops_its_drawer(monkeypatch, antithetic):
        # one block on 2 CPUs: its worker fails at its fourth eta while the
        # drawer waits for a buffer; the error surfaces, and the drawer ends
        model = table_model(0.0)
        config = McConfig(n_paths=mc_engine._BLOCK, n_steps=40, maturity=0.1, seed=1, antithetic=antithetic)
        _on_cpus(monkeypatch, 2)
        calls = []
        original = TanhLocalVol.eta

        def eta(self, k, out=None):
            calls.append(k)
            if len(calls) == 4:
                raise FloatingPointError("step failed")
            return original(self, k, out=out)

        monkeypatch.setattr(TanhLocalVol, "eta", eta)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="step failed"):
            simulate_paths(model, config)
        assert threading.active_count() == threads

    def test_failed_draw_stops_its_stepper(self):
        _in_child(60, self.failed_draw_stops_its_stepper)

    @staticmethod
    def failed_draw_stops_its_stepper(monkeypatch):
        # one block on 2 CPUs: the drawer fails at its third draw while the
        # block's worker waits for it; the worker re-raises the draw's error
        # and ends
        model = table_model(0.0)
        config = McConfig(n_paths=mc_engine._BLOCK, n_steps=40, maturity=0.1, seed=1)
        _on_cpus(monkeypatch, 2)
        original = mc_engine._generator

        class FailingGenerator:
            def __init__(self, rng):
                self.rng, self.draws = rng, 0

            def standard_normal(self, out):
                self.draws += 1
                if self.draws == 3:
                    raise MemoryError("draw failed")
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(mc_engine, "_generator", lambda seed, index: FailingGenerator(original(seed, index)))
        raised = []
        original_advance = mc_engine._Stepper.advance

        def advance(self, block, steps):
            try:
                return original_advance(self, block, steps)
            except MemoryError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(mc_engine._Stepper, "advance", advance)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="draw failed"):
            simulate_paths(model, config)
        assert len(raised) == 1
        assert threading.active_count() == threads


class TestCostSplit:
    """The stepping workers' shares of the block-steps (``_cuts``)."""

    @staticmethod
    def share_costs(n_paths, n_steps, rows, cuts):
        # each block-step priced on its own: its draws, then its rows at the
        # block's width, in columns
        block = mc_engine._BLOCK
        cost = [mc_engine._DRAW_COST * block + rows * min(block, n_paths - (p // n_steps) * block)
                for p in range(cuts[-1])]
        return [sum(cost[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]

    @pytest.mark.parametrize("blocks, n_steps, rows, steppers", [
        (3, 3, 1, 2), (7, 2, 1, 2), (4, 200, 2, 2), (9, 2, 2, 4), (5, 3, 2, 3), (9, 1, 1, 8), (10, 7, 2, 3),
    ])
    def test_full_blocks_cut_by_count(self, blocks, n_steps, rows, steppers):
        total = blocks * n_steps
        cuts = mc_engine._cuts(blocks * mc_engine._BLOCK, n_steps, rows, steppers)
        assert cuts == [w * total // steppers for w in range(steppers + 1)]

    def test_cli_default_shares_cost_alike(self):
        # 50,000 pairs of 200 steps on 2 workers: 3 full blocks and one of
        # 848 pairs.  Cut by count, between blocks 1 and 2, the second share
        # would cost about 16% less than the first
        n_paths, n_steps, rows = 50_000, 200, 2
        cuts = mc_engine._cuts(n_paths, n_steps, rows, 2)
        first, second = self.share_costs(n_paths, n_steps, rows, cuts)
        assert cuts[0] == 0 and cuts[-1] == 4 * n_steps
        assert abs(first - second) <= (mc_engine._DRAW_COST + rows) * mc_engine._BLOCK

    @pytest.mark.parametrize("n_paths, n_steps, rows, steppers", [
        (2 * 16384 + 77, 3, 2, 2), (4 * 16384 + 77, 3, 1, 2), (4 * 16384 + 77, 3, 2, 3), (40_001, 25, 2, 2),
        (8 * 16384 + 1, 2, 2, 4), (8 * 16384 + 1, 2, 1, 8), (12 * 16384 + 5000, 50, 2, 5), (3 * 16384 + 1, 1, 1, 2),
    ])
    def test_shares_within_a_block_step_of_their_due(self, n_paths, n_steps, rows, steppers):
        # while blocks outnumber the workers, a share costs its due, a
        # steppers-th of the whole, to within one full block-step, and holds
        # at least a block's worth of steps
        cuts = mc_engine._cuts(n_paths, n_steps, rows, steppers)
        costs = self.share_costs(n_paths, n_steps, rows, cuts)
        step = (mc_engine._DRAW_COST + rows) * mc_engine._BLOCK
        assert all(hi - lo >= n_steps for lo, hi in zip(cuts, cuts[1:])), cuts
        assert all(abs(steppers * cost - sum(costs)) < steppers * step for cost in costs), (cuts, costs)

    @pytest.mark.parametrize("n_paths, n_steps, rows", [(100, 7, 1), (16384, 6, 2), (2 * 16384 + 9, 4, 2),
                                                        (5 * 16384 - 1, 3, 1)])
    def test_no_block_is_cut_while_workers_suffice(self, n_paths, n_steps, rows):
        # a worker per block, so that a drawer can feed block w's worker w
        blocks = (n_paths + mc_engine._BLOCK - 1) // mc_engine._BLOCK
        assert mc_engine._cuts(n_paths, n_steps, rows, blocks) == [w * n_steps for w in range(blocks + 1)]


class TestWorkingSet:
    @staticmethod
    def _peak_bytes(model, config, aux_const_vol=None):
        # numpy imports its random package on first use; keep that out
        simulate_paths(model, McConfig(2, 1, 0.1, 0))
        tracemalloc.start()
        try:
            simulate_paths(model, config, aux_const_vol=aux_const_vol)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("cpus, n_paths, antithetic, aux_const_vol, arrays", [
        # 6 worker buffers (two draw rows, eta, one temporary, sqrt(V+),
        # dw) and 3 per row (log-moneyness, V, V+)
        (1, 2 * mc_engine._BLOCK, False, None, 9),
        # the mirrored row reuses the negated draws; 4 arrays per row with log_aux
        (1, 2 * mc_engine._BLOCK, True, 0.3, 14),
        # a drawer's ring of two draw buffers stands in for the worker's own
        # one: 2 arrays more
        (2, mc_engine._BLOCK, False, None, 11),
        # a full block and a ragged one of 77 paths, a worker each: 6 buffers
        # per worker, and 3 rows at each block's width
        (2, mc_engine._BLOCK + 77, False, None, 12 + 3 + 3 * 77 / mc_engine._BLOCK),
    ])
    def test_peak_is_flat_in_steps(self, monkeypatch, cpus, n_paths, antithetic, aux_const_vol, arrays):
        _on_cpus(monkeypatch, cpus)
        model = table_model(-0.7, vol_of_vol=ORACLE_VOLS_OF_VOL["square-root"])
        block_bytes = mc_engine._BLOCK * 8
        outputs = (3 if aux_const_vol else 2) * (2 if antithetic else 1) * n_paths * 8
        peaks = [self._peak_bytes(model, McConfig(n_paths, n_steps, 0.1, 3, antithetic), aux_const_vol)
                 for n_steps in (5, 200)]
        # nothing is allocated per step: the peak at 200 steps is that at 5,
        # up to small Python objects
        assert abs(peaks[1] - peaks[0]) < block_bytes // 16, peaks
        assert max(peaks) - outputs <= arrays * block_bytes + block_bytes // 4, (peaks, outputs)


@pytest.fixture(scope="module")
def samples():
    return simulate_paths(table_model(0.0), McConfig(100_000, 100, 1 / 12, 42))


class TestPricing:

    def test_zero_strike_call(self, samples):
        est = price(samples, "european", 0.0, True)
        assert est.value == pytest.approx(samples.terminal_s.mean(), rel=1e-12)

    def test_discounting(self):
        # zero carry at r = q, so both models simulate the same paths
        config = McConfig(20_000, 20, 1 / 12, 42)
        und = price(simulate_paths(table_model(0.0), config), "european", 1.0, True)
        disc = price(simulate_paths(table_model(0.0, r=0.05, q=0.05), config), "european", 1.0, True)
        assert disc.value == pytest.approx(und.value * math.exp(-0.05 / 12), rel=1e-12)
        assert disc.std_error == pytest.approx(und.std_error * math.exp(-0.05 / 12), rel=1e-12)

    def test_deep_otm_negligible(self, samples):
        est = price(samples, "european", 100.0, True)
        assert est.value < 1e-6

    def test_put_call_parity_identity(self, samples):
        k = 0.97
        call = price(samples, "vix", k, True)
        put = price(samples, "vix", k, False)
        proxy_mean = terminal_values(samples, "vix").mean()
        assert call.value - put.value == pytest.approx(proxy_mean - k, abs=1e-12)

    def test_vix_proxy_zero_strike(self, samples):
        est = price(samples, "vix", 0.0, True)
        assert est.value == pytest.approx(terminal_values(samples, "vix").mean(), rel=1e-12)

    def test_terminal_values(self, samples):
        assert terminal_values(samples, "european") is samples.terminal_s
        np.testing.assert_array_equal(terminal_values(samples, "vix"),
                                      TANH.eta(np.log(samples.terminal_s)) * np.sqrt(samples.terminal_v))

    def test_invalid_inputs_rejected(self, samples):
        with pytest.raises(ValueError, match="strike must be nonnegative"):
            price(samples, "european", -1.0, True)
        with pytest.raises(ValueError, match="product must be"):
            terminal_values(samples, "asian")
        with pytest.raises(ValueError, match="product must be"):
            price(samples, "asian", 1.0, True)

    def test_antithetic_variance_reduction(self):
        model = table_model(0.0)
        t = 1 / 12
        plain = simulate_paths(model, McConfig(100_000, 50, t, 314))
        anti = simulate_paths(model, McConfig(50_000, 50, t, 314, antithetic=True))
        se_plain = price(plain, "european", 1.0, True).std_error
        est_anti = price(anti, "european", 1.0, True)
        # pairs are averaged: one estimate per pair
        assert est_anti.n == 50_000
        # same total path budget; pairing must cut the variance measurably
        assert se_plain**2 / est_anti.std_error**2 >= 1.2

    def test_step_halving_stability(self):
        model = table_model(-0.7)
        t = 1 / 12
        coarse = simulate_paths(model, McConfig(100_000, 100, t, 2718))
        fine = simulate_paths(model, McConfig(100_000, 200, t, 2719))
        pc = price(coarse, "european", 1.0, True)
        pf = price(fine, "european", 1.0, True)
        assert abs(pc.value - pf.value) <= 2.0 * math.hypot(pc.std_error, pf.std_error) + 1e-5


class TestVixExactMeanrev:
    def test_identity_mapping(self):
        samples = simulate_paths(table_model(0.0), McConfig(1000, 5, 0.1, 1))
        np.testing.assert_allclose(
            vix_exact_meanrev(samples, VixMapping(1.0, 0.0)),
            np.sqrt(samples.terminal_v), rtol=1e-14)

    def test_fixed_point(self):
        samples = simulate_paths(table_model(0.0), McConfig(1000, 5, 0.1, 1))
        object.__setattr__(samples, "terminal_v", np.full(1000, 0.04))
        out = vix_exact_meanrev(samples, VixMapping(alpha=0.9, beta=0.004))
        np.testing.assert_allclose(out, 0.2, rtol=1e-14)


class TestProxyErrorBounds:
    def test_zero_carry_kills_c1(self):
        c1, c2 = proxy_error_bounds(table_model(0.0), 30 / 365)
        assert c1 == 0.0
        assert c2 > 0.0

    def test_c1_positive_with_carry(self):
        c1, c2 = proxy_error_bounds(table_model(0.0, r=0.01), 30 / 365)
        assert c1 == pytest.approx(2 * 0.5 * 1.5 * 0.01 * math.exp(0.01 * 30 / 365) * 30 / 365, rel=1e-12)

    def test_c2_is_half_power(self):
        model = table_model(0.0)
        ratios = []
        for tau in (1e-4, 1e-6, 1e-8):
            _, c2 = proxy_error_bounds(model, tau)
            ratios.append(c2 / math.sqrt(tau))
        assert ratios[1] == pytest.approx(ratios[2], rel=1e-2)
        assert ratios[0] == pytest.approx(ratios[2], rel=0.05)

    def test_unbounded_specs_rejected(self):
        with pytest.raises(ValueError):
            proxy_error_bounds(table_model(0.0, local_vol=TaylorLocalVol(1.0, -0.2)), 0.1)
        with pytest.raises(ValueError):
            proxy_error_bounds(table_model(0.0, vol_of_vol=SquareRootVolOfVol(0.5)), 0.1)
        with pytest.raises(ValueError):
            proxy_error_bounds(
                table_model(0.0, vol_of_vol=LognormalVolOfVol(0.5, drift=MeanRevertingDrift(1.0, 0.1))), 0.1)

    def test_constant_drift_supported(self):
        model = table_model(0.0, vol_of_vol=LognormalVolOfVol(2.0, drift=ConstantDrift(0.3)))
        c1, c2 = proxy_error_bounds(model, 0.05)
        assert c2 > 0.0 and math.isfinite(c2)


class TestSmileFromMc:
    def test_empty_strikes(self):
        samples = simulate_paths(table_model(0.0), McConfig(1000, 5, 0.1, 1))
        assert smile_from_mc(samples, [], "european") == []

    def test_european_atm_level(self):
        samples = simulate_paths(table_model(0.0), McConfig(50_000, 100, 1 / 12, 123))
        out = smile_from_mc(samples, [1.0], "european")
        assert len(out) == 1 and out[0].skip_reason is None
        assert out[0].implied_vol == pytest.approx(0.3162, abs=0.012)
        assert out[0].iv_low < out[0].implied_vol < out[0].iv_high

    def test_vix_atm_level(self):
        samples = simulate_paths(table_model(-0.7), McConfig(50_000, 100, 1 / 52, 123))
        out = smile_from_mc(samples, [math.sqrt(0.1)], "vix")
        assert out[0].skip_reason is None
        assert out[0].implied_vol == pytest.approx(1.116, abs=0.05)

    def test_far_strike_skipped_with_reason(self):
        samples = simulate_paths(table_model(0.0), McConfig(20_000, 50, 1 / 12, 7))
        out = smile_from_mc(samples, [5.0], "european")
        assert out[0].skip_reason is not None
        assert math.isnan(out[0].implied_vol)

    def test_prices_match_price(self):
        # the smile prices OTM sides with the same estimator as price(),
        # reported undiscounted-then-discounted at the model rate
        model = table_model(0.0, r=0.03, q=0.03)
        samples = simulate_paths(model, McConfig(20_000, 20, 1 / 12, 7))
        for product, strikes in (("european", [0.95, 1.05]), ("vix", [0.3, 0.33])):
            forward = 1.0 if product == "european" else terminal_values(samples, "vix").mean()
            for row in smile_from_mc(samples, strikes, product):
                est = price(samples, product, row.strike, row.strike >= forward)
                assert row.price == pytest.approx(est.value, rel=1e-12)
                assert row.std_error == pytest.approx(est.std_error, rel=1e-12)

    def test_quantile_grid(self):
        model = table_model(0.0)
        samples = simulate_paths(model, McConfig(20_000, 50, 1 / 12, 7))
        grid = default_strike_grid(samples, "european", count=11)
        assert grid.shape == (11,)
        assert np.all(np.diff(grid) > 0)
        lo, hi = np.quantile(samples.terminal_s, [0.01, 0.99])
        assert grid[0] == pytest.approx(lo, rel=1e-10)
        assert grid[-1] == pytest.approx(hi, rel=1e-10)
