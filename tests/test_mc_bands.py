"""The Monte Carlo error bands against exact laws, the premise of
antithetic pairs (at equal simulated paths they never cost variance), and
the full-truncation Euler bias of the square-root factor against the exact
law of V_T.

A band [iv_low, iv_high] is the implied vol plus or minus one standard
error pushed through the vega, so it should hold the true vol in 68.3% of
independent runs.  Two cases have a Black price as exact truth: the VIX
proxy on a constant-eta model whose lognormal variance factor has a
constant drift (the engine steps it exactly), and the European option on
the constant-vol GBM that the engine carries on the same increments
(``aux_const_vol``).
"""

import math
from pathlib import Path

import numpy as np
import pytest

from lsv_shortmat.mc_engine import McConfig, McSamples, price, simulate_paths, smile_from_mc
from lsv_shortmat.model import (
    ConstantDrift,
    ConstantLocalVol,
    LognormalVolOfVol,
    LsvModel,
    SquareRootVolOfVol,
    TanhLocalVol,
    load_model,
    vix_spot,
)
from oracles import lognormal_vix_law, sqrt_option_price, square_root_variance_law

MODELS_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "models"
TRIALS = 300
PATHS = 4096
P_HIT = math.erf(1.0 / math.sqrt(2.0))  # 0.6827
# the hit rate of TRIALS independent trials has standard deviation
# sqrt(p (1 - p) / TRIALS) = 0.027 about p; four of them (0.108) leave a
# false alarm about once in 16,000 runs and still catch a band 1.3 times
# too wide or narrow (hit rate 0.82 or 0.55)
BINOMIAL_BOUND = 4.0 * math.sqrt(P_HIT * (1.0 - P_HIT) / TRIALS)


def _vix_case():
    v0, sigma, mu, maturity = 0.1, 1.0, 0.5, 1.0 / 52.0
    model = LsvModel(s0=1.0, v0=v0, rho=-0.7, local_vol=ConstantLocalVol(),
                     vol_of_vol=LognormalVolOfVol(sigma, drift=ConstantDrift(mu)))
    forward, vol = lognormal_vix_law(v0, sigma, mu, maturity)
    return model, "vix", None, forward, vol, maturity


def _european_case():
    aux_vol, maturity = 0.3, 1.0 / 12.0
    model = LsvModel(s0=1.0, v0=0.1, rho=-0.7, local_vol=TanhLocalVol(1.0, -0.5, 0.0),
                     vol_of_vol=LognormalVolOfVol(2.0), r=0.02, q=0.01)
    forward = model.s0 * math.exp((model.r - model.q) * maturity)
    return model, "european", aux_vol, forward, aux_vol, maturity


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("case", [_vix_case, _european_case])
def test_band_coverage(case, antithetic):
    model, product, aux_vol, forward, vol, maturity = case()
    rng = np.random.default_rng(10)
    hits = 0
    for seed in range(TRIALS):
        # one strike per seed, so that the trials share no path; the strikes
        # lie within 1.5 standard deviations of the forward, well inside the
        # [1%, 99%] sample quantiles at which the pricer stops quoting
        strike = forward * math.exp(rng.uniform(-1.5, 1.5) * vol * math.sqrt(maturity))
        config = McConfig(PATHS // 2 if antithetic else PATHS, 1, maturity, seed, antithetic=antithetic)
        samples = simulate_paths(model, config, aux_const_vol=aux_vol)
        if aux_vol is not None:
            samples = McSamples(terminal_s=samples.terminal_s_aux, terminal_v=samples.terminal_v,
                                config=config, model=model, v_scheme=samples.v_scheme)
        (point,) = smile_from_mc(samples, [strike], product)
        assert point.skip_reason is None, (seed, point.skip_reason)
        hits += point.iv_low <= vol <= point.iv_high
    assert abs(hits / TRIALS - P_HIT) <= BINOMIAL_BOUND, hits / TRIALS


# the three Monte Carlo runs of the benchmark's mc-validate workload, on its
# fixed strike ranges (log-moneyness about s0 or the VIX spot)
VARIANCE_CASES = [
    ("tanh_lognormal_rho_m07", "european", (-0.2, 0.12), 1.0 / 12.0),
    ("tanh_lognormal_rho_m07", "vix", (-0.28, 0.26), 1.0 / 52.0),
    ("tanh_sqrt_meanrev_rho_m07", "european", (-0.22, 0.12), 1.0 / 12.0),
]
# the ratio of two variances estimated at this size varies from seed to
# seed with a standard deviation of up to 0.063 (at the wing strikes, over
# 24 seeds, with means of 0.93-1.0); the bound is five of those
VARIANCE_NOISE = 0.3


@pytest.mark.parametrize("name, product, k_range, maturity", VARIANCE_CASES)
def test_antithetic_variance_never_larger(name, product, k_range, maturity):
    model = load_model(str(MODELS_DIR / f"{name}.json"))
    reference = model.s0 if product == "european" else vix_spot(model)
    strikes = reference * np.exp(np.linspace(*k_range, 21))
    paths, steps, seed = 50_000, 20, 1
    plain = smile_from_mc(simulate_paths(model, McConfig(paths, steps, maturity, seed)), strikes, product)
    paired = smile_from_mc(simulate_paths(model, McConfig(paths // 2, steps, maturity, seed, antithetic=True)),
                           strikes, product)
    for p, a in zip(plain, paired):
        assert p.skip_reason is None and a.skip_reason is None, p.strike
        assert a.std_error**2 <= p.std_error**2 * (1.0 + VARIANCE_NOISE), (p.strike, a.std_error / p.std_error)


# The full-truncation Euler bias of the VIX options of a square-root factor:
# the parameters of tanh_sqrt_meanrev_rho_m07 (v0 = 0.1, a = 2, b = 0.1,
# rho = -0.7) with sigma = 1 or 2 and constant local vol, so that the VIX
# proxy is sqrt(V_T), at T = 1/52, struck at sqrt(v0) e^k: puts below the
# money, calls from it up.  Each range holds the relative bias
# (MC - exact) / exact of EULER_PAIRS antithetic pairs: its mean over seeds
# 1-8 plus or minus four standard errors of one run, widened to 0.05%.  Only
# the cells where that range excludes 0 are listed (|z| >= 4 at this size),
# so each range also fixes the sign of its bias.
EULER_BIAS = {
    (1.0, 10): {-0.3: (0.0735, 0.1025), -0.2: (0.0395, 0.0595), -0.1: (0.0175, 0.031), 0.0: (0.0005, 0.011),
                0.2: (-0.0285, -0.0015), 0.3: (-0.0735, -0.024)},
    (1.0, 50): {-0.3: (0.0015, 0.0285)},
    (2.0, 10): {-0.3: (0.078, 0.0915), -0.2: (0.059, 0.07), -0.1: (0.043, 0.052), 0.0: (0.01, 0.0215),
                0.1: (0.005, 0.0195)},
    (2.0, 50): {-0.3: (0.016, 0.029), -0.2: (0.012, 0.0225), -0.1: (0.0085, 0.0175)},
}
# the last of the 31 blocks is ragged
EULER_PAIRS = 30 * 16384 + 77


def test_square_root_law_moments():
    # the law's mean and variance are the square-root factor's own:
    # b + (v0 - b) e^{-aT} and v0 s^2 e^{-aT} (1 - e^{-aT}) / a + b s^2 (1 - e^{-aT})^2 / (2a)
    v0, a, b, maturity = 0.1, 2.0, 0.3, 0.5
    for sigma in (0.5, 1.0, 2.0):
        decay = math.exp(-a * maturity)
        mean, var = square_root_variance_law(v0, sigma, a, b, maturity).stats()
        assert mean == pytest.approx(b + (v0 - b) * decay, rel=1e-14)
        want = v0 * sigma**2 * decay * (1.0 - decay) / a + b * sigma**2 * (1.0 - decay) ** 2 / (2.0 * a)
        assert var == pytest.approx(want, rel=1e-13)


def test_sqrt_option_parity():
    # call - put = E sqrt(V_T) - K, the mean taken from the density
    law = square_root_variance_law(0.1, 2.0, 2.0, 0.1, 1.0 / 52.0)
    mean = law.expect(np.sqrt, epsabs=0.0, epsrel=1e-12, limit=200)
    for strike in (0.1, 0.25, 0.32, 0.5):
        parity = sqrt_option_price(law, strike, True) - sqrt_option_price(law, strike, False)
        assert parity == pytest.approx(mean - strike, abs=1e-12)


@pytest.mark.parametrize("sigma, n_steps", sorted(EULER_BIAS))
def test_square_root_euler_bias_pinned(sigma, n_steps):
    base = load_model(str(MODELS_DIR / "tanh_sqrt_meanrev_rho_m07.json"))
    drift, maturity = base.vol_of_vol.drift, 1.0 / 52.0
    model = LsvModel(s0=base.s0, v0=base.v0, rho=base.rho, local_vol=ConstantLocalVol(),
                     vol_of_vol=SquareRootVolOfVol(sigma, drift=drift))
    samples = simulate_paths(model, McConfig(EULER_PAIRS, n_steps, maturity, 11, antithetic=True))
    law = square_root_variance_law(model.v0, sigma, drift.a, drift.b, maturity)
    for k, (lo, hi) in EULER_BIAS[(sigma, n_steps)].items():
        strike, is_call = math.sqrt(model.v0) * math.exp(k), k >= 0.0
        bias = price(samples, "vix", strike, is_call).value / sqrt_option_price(law, strike, is_call) - 1.0
        assert lo <= bias <= hi, (k, bias)
