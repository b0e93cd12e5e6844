import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor

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
)
from lsv_shortmat.smile import VixMapping

TANH = TanhLocalVol(1.0, -0.5, 0.0)


def table_model(rho, **kw):
    base = dict(s0=1.0, v0=0.1, rho=rho, local_vol=TANH, vol_of_vol=LognormalVolOfVol(2.0))
    base.update(kw)
    return LsvModel(**base)


class TestMcConfig:
    @pytest.mark.parametrize("maturity", [math.nan, math.inf, 0.0, -0.1])
    def test_maturity_must_be_positive_and_finite(self, maturity):
        with pytest.raises(ValueError, match="maturity must be positive and finite"):
            McConfig(n_paths=1_000, n_steps=5, maturity=maturity, seed=1)


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
        assert pools == [1, 3]  # one worker per usable CPU, never more than the 3 blocks
        assert runs[0] == runs[1]

    def test_worker_count_without_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(mc_engine.os, "sched_getaffinity", raising=False)
        for reported, workers in ((6, 6), (None, 1)):
            monkeypatch.setattr(mc_engine.os, "cpu_count", lambda r=reported: r)
            assert mc_engine._worker_count() == workers

    def test_more_workers_than_cores(self, monkeypatch):
        # 9 blocks on 9 workers with frequent thread switches: each block must
        # still land in its own columns
        model = table_model(-0.7)
        config = McConfig(n_paths=8 * 16384 + 1, n_steps=2, maturity=0.1, seed=3, antithetic=True)
        monkeypatch.setattr(mc_engine.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = self._sample_bytes(simulate_paths(model, config, aux_const_vol=0.2))
        monkeypatch.setattr(mc_engine.os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = self._sample_bytes(simulate_paths(model, config, aux_const_vol=0.2))
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
