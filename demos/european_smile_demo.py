"""Short-maturity European smile in a bounded local-stochastic vol model.

Builds the benchmark tanh model, prints the closed-form ATM smile expansion
(level, skew, convexity), and compares the quadratic against the asymptotic
implied vol recovered from the full rate-function minimisation across a
strike range.

Run:  python demos/european_smile_demo.py
"""

import math

import numpy as np

from lsv_shortmat import (
    ConstantLocalVol,
    LognormalVolOfVol,
    LsvModel,
    TanhLocalVol,
    european_expansion_sabr_type,
    european_rate,
    rate_to_impvol,
    sabr_rate_closed,
)


def main() -> None:
    model = LsvModel(
        s0=1.0,
        v0=0.1,
        rho=-0.7,
        local_vol=TanhLocalVol(f0=1.0, f1=-0.5, x0=0.0),
        vol_of_vol=LognormalVolOfVol(sigma=2.0),
    )

    exp = european_expansion_sabr_type(model)
    print("Benchmark tanh model, rho = -0.7")
    print(f"  ATM implied vol : {exp.atm:.4f}")
    print(f"  ATM skew        : {exp.skew:.4f}")
    print(f"  ATM convexity   : {exp.convexity:.4f}")
    print()
    print(f"{'log-moneyness':>14} {'quadratic':>10} {'rate solve':>10} {'diff':>9}")
    for k in np.linspace(-0.3, 0.3, 13):
        if abs(k) < 1e-12:
            quad = rate_based = exp.atm
        else:
            quad = exp.evaluate(k)
            rate_based = rate_to_impvol(european_rate(model, math.exp(k)).rate, k)
        print(f"{k:>14.3f} {quad:>10.4f} {rate_based:>10.4f} {rate_based - quad:>+9.4f}")

    print()
    print("Lognormal stochastic-vol sanity check (eta = 1): the two-variable")
    print("minimisation agrees with the closed-form rate to solver precision.")
    sabr = LsvModel(s0=1.0, v0=0.1, rho=-0.5, local_vol=ConstantLocalVol(),
                    vol_of_vol=LognormalVolOfVol(sigma=2.0))
    for k in (-0.3, 0.3):
        solved = european_rate(sabr, math.exp(k)).rate
        closed = sabr_rate_closed(sabr, math.exp(k))
        print(f"  k={k:+.1f}: solved {solved:.10f}  closed {closed:.10f}  diff {solved - closed:+.2e}")


if __name__ == "__main__":
    main()
