"""Monte Carlo validation of the asymptotic smiles.

Simulates the benchmark tanh model (exact lognormal variance steps,
log-Euler asset steps, counter-based per-block random streams), extracts the
implied-vol smile for both products, and prints it against the asymptotic
quadratics together with the square-root-of-maturity ATM price limits.

Uses a reduced path count so the demo runs in a few seconds; scale
``N_PATHS`` up to desk size (100k or more) for tighter error bands.

Run:  python demos/mc_validation_demo.py
"""

import math

import numpy as np

from lsv_shortmat import (
    LognormalVolOfVol,
    LsvModel,
    McConfig,
    TanhLocalVol,
    atm_price_limit_european,
    atm_price_limit_vix,
    european_expansion_sabr_type,
    price,
    simulate_paths,
    smile_from_mc,
    vix_expansion_sabr_type,
    vix_spot,
)

N_PATHS = 40_000
N_STEPS = 200
SEED = 7


def main() -> None:
    model = LsvModel(s0=1.0, v0=0.1, rho=-0.7,
                     local_vol=TanhLocalVol(1.0, -0.5, 0.0),
                     vol_of_vol=LognormalVolOfVol(2.0))

    print(f"European options, T = 1/12, {N_PATHS} paths x {N_STEPS} steps")
    config = McConfig(n_paths=N_PATHS, n_steps=N_STEPS, maturity=1 / 12, seed=SEED)
    exp = european_expansion_sabr_type(model)
    strikes = np.exp(np.linspace(-0.25, 0.2, 10))
    print(f"{'log-moneyness':>14} {'asymptotic':>11} {'mc iv':>8} {'band':>8}")
    for row in smile_from_mc(simulate_paths(model, config), strikes, "european"):
        if row.skip_reason:
            continue
        quad = exp.evaluate(row.log_moneyness)
        band = row.iv_high - row.implied_vol
        print(f"{row.log_moneyness:>14.3f} {quad:>11.4f} {row.implied_vol:>8.4f} {band:>8.4f}")

    print()
    print(f"VIX options on the short-horizon proxy, T = 1/52")
    config_v = McConfig(n_paths=N_PATHS, n_steps=N_STEPS, maturity=1 / 52, seed=SEED)
    exp_v = vix_expansion_sabr_type(model)
    f0 = vix_spot(model)
    strikes_v = f0 * np.exp(np.linspace(-0.3, 0.5, 9))
    print(f"{'log-moneyness':>14} {'asymptotic':>11} {'mc iv':>8} {'band':>8}")
    for row in smile_from_mc(simulate_paths(model, config_v), strikes_v, "vix"):
        if row.skip_reason:
            continue
        quad = exp_v.evaluate(row.log_moneyness)
        band = row.iv_high - row.implied_vol
        print(f"{row.log_moneyness:>14.3f} {quad:>11.4f} {row.implied_vol:>8.4f} {band:>8.4f}")

    print()
    print("ATM prices scale like sqrt(T): price / sqrt(T) vs the closed-form limit")
    model0 = LsvModel(s0=1.0, v0=0.1, rho=0.0, local_vol=model.local_vol,
                      vol_of_vol=model.vol_of_vol)
    lim_e = atm_price_limit_european(model0)
    lim_v = atm_price_limit_vix(model0)
    f0 = vix_spot(model0)
    print(f"{'T':>8} {'C_E/sqrt(T)':>12} {'limit':>8} {'C_V/sqrt(T)':>12} {'limit':>8}")
    for t in (1 / 50, 1 / 200):
        cfg = McConfig(n_paths=N_PATHS, n_steps=100, maturity=t, seed=SEED)
        samples = simulate_paths(model0, cfg)
        ce = price(samples, "european", 1.0, True).value / math.sqrt(t)
        cv = price(samples, "vix", f0, True).value / math.sqrt(t)
        print(f"{t:>8.4f} {ce:>12.5f} {lim_e:>8.5f} {cv:>12.5f} {lim_v:>8.5f}")


if __name__ == "__main__":
    main()
