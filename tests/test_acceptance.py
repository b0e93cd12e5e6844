"""Acceptance suite: one test per acceptance criterion.

Each test prints a `[PASS]`/`[FAIL]` line (visible under `pytest -s`) and
asserts every sub-check at its stated tolerance.  Three criteria (2, 5 and 6)
ask more than the method promises: a fit window wide enough for cubic and
quartic smile terms to show, a four-term series held to 1e-6 beyond its
range, and an MC band narrower than the finite-maturity ATM bias.  They are
NOT patched over here: those sub-checks are asserted as stated and fail with
messages that carry the measured numbers.  The VIX convexity column of
criterion 1 was corrected to the true quadratic coefficients, confirmed by
two independent oracles (see the comment above `REFERENCE_TABLE`).  See the
repository README, "Acceptance status", for details.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import io
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from lsv_shortmat.black_scholes import OptionQuote, black_price, implied_vol
from lsv_shortmat.cli import main as cli_main
from lsv_shortmat.hartman_watson import hw_F, hw_F_series, rate_I, solve_f_branch
from lsv_shortmat.heston_rate import marginal_J1, rate_IH_numeric, rate_IH_series
from lsv_shortmat.mc_engine import McConfig, price, simulate_paths, smile_from_mc, terminal_values
from lsv_shortmat.model import (
    ConstantLocalVol,
    LognormalVolOfVol,
    LsvModel,
    TanhLocalVol,
    vix_spot,
)
from lsv_shortmat.rate_solver import european_rate, rate_to_impvol, sabr_rate_closed, vix_rate
from lsv_shortmat.smile import (
    atm_price_limit_european,
    atm_price_limit_vix,
    european_expansion_sabr_type,
    vix_expansion_sabr_type,
)

SEED = 2024
TANH = TanhLocalVol(1.0, -0.5, 0.0)


def table_model(rho, **kw):
    base = dict(s0=1.0, v0=0.1, rho=rho, local_vol=TANH, vol_of_vol=LognormalVolOfVol(2.0))
    base.update(kw)
    return LsvModel(**base)


def report(name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {name}")
    for item in failures:
        print(f"    - {item}")
    assert not failures, f"{name}: {len(failures)} sub-check(s) failed: " + "; ".join(failures)


# ---------------------------------------------------------------------------
# criterion 1: benchmark-table reproduction
# ---------------------------------------------------------------------------

# The kappa_vix column holds the quadratic coefficient of the VIX smile.  It
# was once pinned at 0.004 / 0.002 / -0.005, which is sqrt(V0) = 0.316 times
# the true values.  Two oracles that share no code with the closed form fix
# the column (both live in tests/test_smile.py):
# - Richardson-extrapolated symmetric second differences of the numerically
#   minimised vix_rate implied vols give 0.012621 / 0.007483 / -0.017184;
# - as the vol of vol goes to 0 the closed form tends to the exact local-vol
#   VIX smile |k| sqrt(V0) / |int_0^x dy / eta(y)|, k = log(eta(x) / eta0),
#   whose mpmath convexity at rho = 0 is -0.2108185 (V0 = 0.1), scaling
#   with sqrt(V0) like the level and the skew.
REFERENCE_TABLE = {
    "-0.7": ("0.316", "-0.429", "0.133", "1.116", "0.054", "0.013"),
    "0": ("0.316", "-0.079", "0.520", "1.012", "0.012", "0.007"),
    "0.7": ("0.316", "0.271", "0.133", "0.896", "-0.053", "-0.017"),
}
COLUMNS = ("sigma_e_atm", "s_e", "kappa_e", "sigma_vix_atm", "s_vix", "kappa_vix")


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["table1"])
    elapsed = time.perf_counter() - start
    failures = []
    if code != 0:
        failures.append(f"table1 exited with {code}")
    lines = buf.getvalue().strip().split("\n")
    rows = {line.split(",")[0]: tuple(line.split(",")[1:]) for line in lines[1:]}
    for rho, expected in REFERENCE_TABLE.items():
        got = rows.get(rho)
        for col, e, g in zip(COLUMNS, expected, got):
            if e != g:
                failures.append(f"rho={rho} {col}: emitted {g}, reference {e}")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report("criterion 1: table1 emits the 18 reference values at 3 decimals", failures)


# ---------------------------------------------------------------------------
# criterion 2: rate-function vs closed-form expansions on the pinned window
# ---------------------------------------------------------------------------


def _fit_quadratic(model, product):
    ks = np.array([-0.06, -0.04, -0.02, 0.02, 0.04, 0.06])
    vols = []
    for k in ks:
        if product == "european":
            pt = european_rate(model, model.s0 * math.exp(k))
        else:
            pt = vix_rate(model, vix_spot(model) * math.exp(k))
        vols.append(rate_to_impvol(pt.rate, k))
    c2, c1, c0 = np.polyfit(ks, vols, 2)
    return float(c0), float(c1), float(c2)


def test_criterion_2_rate_expansion_consistency():
    start = time.perf_counter()
    failures = []
    for rho in (-0.7, 0.0, 0.7):
        model = table_model(rho)
        for product, expansion in (
            ("european", european_expansion_sabr_type(model)),
            ("vix", vix_expansion_sabr_type(model)),
        ):
            atm, skew, conv = _fit_quadratic(model, product)
            checks = (
                ("atm", atm, expansion.atm, 1e-3),
                ("skew", skew, expansion.skew, 1e-3),
                ("convexity", conv, expansion.convexity, 5e-3),
            )
            for name, got, want, tol in checks:
                if abs(got - want) > tol:
                    failures.append(
                        f"{product} rho={rho} {name}: fit {got:.5f} vs closed form "
                        f"{want:.5f} (|diff| {abs(got - want):.2e} > {tol:g})")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    report("criterion 2: quadratic fit on +-(0.02,0.04,0.06) matches closed forms", failures)


# ---------------------------------------------------------------------------
# criterion 3: closed-form equivalence for lognormal stochastic vol
# ---------------------------------------------------------------------------


def test_criterion_3_sabr_closed_form_equivalence():
    failures = []
    for rho in (-0.5, 0.0, 0.5):
        model = LsvModel(s0=1.0, v0=0.1, rho=rho, local_vol=ConstantLocalVol(),
                         vol_of_vol=LognormalVolOfVol(2.0))
        for k in (-0.3, -0.1, 0.1, 0.3):
            strike = math.exp(k)
            got = european_rate(model, strike).rate
            want = sabr_rate_closed(model, strike)
            if abs(got - want) > 1e-6:
                failures.append(f"rho={rho} k={k}: |{got:.9f} - {want:.9f}| > 1e-6")
    report("criterion 3: |european_rate - sabr_rate_closed| <= 1e-6", failures)


# ---------------------------------------------------------------------------
# criterion 4: square-root-factor rate-function oracles
# ---------------------------------------------------------------------------


def test_criterion_4_heston_rate_oracles():
    failures = []
    sigma = 1.0
    for ex, ey in ((0.1, 0.0), (-0.1, 0.0), (0.0, 0.1), (0.0, -0.1), (0.1, 0.1),
                   (-0.1, 0.1), (0.05, -0.05)):
        num = rate_IH_numeric(math.exp(ex), math.exp(ey), sigma)
        ser = rate_IH_series(ex, ey, sigma)
        if abs(num - ser) > 2e-4:
            failures.append(f"transform vs series at ({ex},{ey}): |diff| = {abs(num - ser):.2e}")
    for eps in (0.05, 0.1, 0.2, -0.05, -0.1, -0.2):
        res = minimize_scalar(lambda w: rate_IH_numeric(math.exp(eps), math.exp(w), sigma),
                              bracket=(-0.4, 0.4), method="brent", options=dict(xtol=1e-9))
        want = marginal_J1(eps, sigma)
        if abs(res.fun - want) > 2e-4:
            failures.append(f"J1 marginal at {eps}: |{res.fun:.6f} - {want:.6f}| > 2e-4")
        res = minimize_scalar(lambda w: rate_IH_numeric(math.exp(w), math.exp(eps), sigma),
                              bracket=(-0.4, 0.4), method="brent", options=dict(xtol=1e-9))
        exact = 2.0 * (math.exp(eps / 2.0) - 1.0) ** 2 / sigma**2
        if abs(res.fun - exact) > 2e-4:
            failures.append(f"J2 marginal at {eps}: |{res.fun:.6f} - {exact:.6f}| > 2e-4")
    report("criterion 4: Legendre transform matches series and marginal oracles", failures)


# ---------------------------------------------------------------------------
# criterion 5: Hartman-Watson function suite
# ---------------------------------------------------------------------------


def test_criterion_5_hartman_watson_suite():
    failures = []
    for rho in (0.1, 0.4, 0.8, 0.95, 1.1, 1.5, 3.0, 8.0):
        sol = solve_f_branch(rho)
        if sol.branch == "cosh":
            resid = rho * math.sinh(sol.root) / sol.root - 1.0
        else:
            resid = sol.root + rho * math.sin(sol.root) - math.pi
        if abs(resid) > 1e-12:
            failures.append(f"branch equation at rho={rho}: residual {resid:.2e} > 1e-12")
    for el in np.linspace(-0.3, 0.3, 13):
        rho = math.exp(el)
        err = abs(hw_F_series(rho) - hw_F(rho))
        if err > 1e-6:
            failures.append(f"series vs branch at log rho={el:+.3f}: {err:.2e} > 1e-6")
    if abs(rate_I(1.0, 1.0)) > 1e-12:
        failures.append(f"I(1,1) = {rate_I(1.0, 1.0):.2e} > 1e-12")
    # remainder of the quadratic form must be cubic: regression slope >= 2.7
    scales = np.array([0.02, 0.04, 0.08, 0.16])
    rng = np.random.default_rng(17)
    dirs = rng.uniform(-1.0, 1.0, size=(24, 2))
    dirs /= np.abs(dirs).max(axis=1, keepdims=True)
    rems = []
    for s in scales:
        worst = 0.0
        for a, b in s * dirs:
            quad = 12 * a * a - 24 * a * b + 16 * b * b
            worst = max(worst, abs(rate_I(math.exp(a), math.exp(b)) - quad))
        rems.append(worst)
    slope = np.polyfit(np.log(scales), np.log(rems), 1)[0]
    if slope < 2.7:
        failures.append(f"quadratic-form remainder slope {slope:.2f} < 2.7")
    report("criterion 5: Hartman-Watson branch/series/positivity suite", failures)


# ---------------------------------------------------------------------------
# criterion 6: Monte Carlo vs asymptotics at desk scale
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_6_mc_vs_asymptotics():
    start = time.perf_counter()
    failures = []
    config_e = McConfig(n_paths=100_000, n_steps=200, maturity=1 / 12, seed=SEED)
    slope_grid = np.linspace(-0.1, 0.1, 9)
    for rho in (-0.7, 0.0, 0.7):
        model = table_model(rho)
        strikes = np.exp(slope_grid)
        rows = smile_from_mc(simulate_paths(model, config_e), strikes, "european")
        ivs = {round(r.log_moneyness, 6): r.implied_vol for r in rows if r.skip_reason is None}
        atm_iv = ivs.get(0.0)
        if atm_iv is None:
            failures.append(f"european rho={rho}: ATM strike not invertible")
            continue
        if abs(atm_iv - 0.316) > 0.006:
            failures.append(
                f"european rho={rho}: ATM iv {atm_iv:.4f} vs 0.316 "
                f"(|diff| {abs(atm_iv - 0.316):.4f} > 0.006)")
        ks = sorted(ivs)
        slope = np.polyfit(ks, [ivs[k] for k in ks], 1)[0]
        s_e = european_expansion_sabr_type(model).skew
        if abs(slope - s_e) > 0.08:
            failures.append(
                f"european rho={rho}: LS slope {slope:.4f} vs s_E {s_e:.4f} "
                f"(|diff| {abs(slope - s_e):.4f} > 0.08)")
    config_v = McConfig(n_paths=100_000, n_steps=200, maturity=1 / 52, seed=SEED)
    for rho, table_atm in ((-0.7, 1.116), (0.0, 1.012), (0.7, 0.896)):
        model = table_model(rho)
        rows = smile_from_mc(simulate_paths(model, config_v), [vix_spot(model)], "vix")
        iv = rows[0].implied_vol
        if not (rows[0].skip_reason is None and abs(iv - table_atm) <= 0.04):
            failures.append(
                f"vix rho={rho}: ATM iv {iv:.4f} vs {table_atm} "
                f"(|diff| {abs(iv - table_atm):.4f} > 0.04)")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.0f}s >= 120s")
    report("criterion 6: 100k-path MC within stated bands of the asymptotics", failures)


# ---------------------------------------------------------------------------
# criterion 7: square-root-of-maturity ATM price limits
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_7_atm_sqrt_t_limits():
    model = table_model(0.0)
    limit_e = atm_price_limit_european(model)  # 0.1261566
    limit_v = atm_price_limit_vix(model)       # 0.1277238
    aux_vol = math.sqrt(0.1)  # eta0 sqrt(V0)
    f0 = vix_spot(model)
    gaps_e, gaps_v = [], []
    for maturity in (1 / 100, 1 / 200, 1 / 400):
        config = McConfig(n_paths=2_000_000, n_steps=200, maturity=maturity, seed=SEED)
        samples = simulate_paths(model, config, aux_const_vol=aux_vol)
        pay = np.maximum(samples.terminal_s - 1.0, 0.0)
        cv = np.maximum(samples.terminal_s_aux - 1.0, 0.0)
        cv_mean = black_price(1.0, 1.0, aux_vol, maturity, True)
        beta = float(np.cov(pay, cv)[0, 1] / np.var(cv))
        est_e = float(pay.mean() - beta * (cv.mean() - cv_mean))
        pay_v = np.maximum(terminal_values(samples, "vix") - f0, 0.0)
        est_v = float(pay_v.mean())
        rt = math.sqrt(maturity)
        gaps_e.append(abs(est_e / rt - limit_e) / limit_e)
        gaps_v.append(abs(est_v / rt - limit_v) / limit_v)
    failures = []
    for name, gaps in (("european", gaps_e), ("vix", gaps_v)):
        if not (gaps[0] > gaps[1] > gaps[2]):
            failures.append(f"{name}: gaps {['%.4f' % g for g in gaps]} not decreasing")
        if gaps[2] > 0.05:
            failures.append(f"{name}: gap at T=1/400 is {gaps[2]:.4f} > 5%")
    print(f"    european gaps: {['%.5f' % g for g in gaps_e]}; vix gaps: {['%.5f' % g for g in gaps_v]}")
    report("criterion 7: ATM price / sqrt(T) converges to the closed-form limits", failures)


# ---------------------------------------------------------------------------
# criterion 8: property suite
# ---------------------------------------------------------------------------


def test_criterion_8_property_suite():
    failures = []
    # rate nonnegativity and zero at the money
    model = table_model(-0.7)
    for k in (-0.3, -0.1, 0.1, 0.3):
        if european_rate(model, math.exp(k)).rate <= 0.0:
            failures.append(f"european rate not positive at k={k}")
    if abs(european_rate(model, 1.0).rate) > 1e-12:
        failures.append("european rate not zero at the money")
    f0 = vix_spot(model)
    for x in (-0.3, 0.3):
        if vix_rate(model, f0 * math.exp(x)).rate <= 0.0:
            failures.append(f"vix rate not positive at x={x}")
    if abs(vix_rate(model, f0).rate) > 1e-12:
        failures.append("vix rate not zero at the money")
    # implied-vol round trip
    for vol in (0.1, 0.5, 1.5):
        for k in (0.8, 1.0, 1.25):
            premium = black_price(1.0, k, vol, 0.25, k >= 1.0)
            got = implied_vol(OptionQuote(1.0, k, 0.25, k >= 1.0, premium))
            if abs(got - vol) > 1e-10:
                failures.append(f"round trip error {abs(got - vol):.2e} at vol={vol}, K={k}")
    # determinism
    config = McConfig(n_paths=50_000, n_steps=60, maturity=1 / 12, seed=SEED)
    a = simulate_paths(model, config)
    b = simulate_paths(model, config)
    if a.terminal_s.tobytes() != b.terminal_s.tobytes() or a.terminal_v.tobytes() != b.terminal_v.tobytes():
        failures.append("simulation output is not byte-identical across runs")
    # martingale within 4 SE (rho <= 0)
    se = a.terminal_s.std(ddof=1) / math.sqrt(a.terminal_s.size)
    if abs(a.terminal_s.mean() - 1.0) > 4 * se:
        failures.append(
            f"martingale check: |{a.terminal_s.mean():.6f} - 1| > 4 SE ({4 * se:.6f})")
    # put-call parity identity on shared samples
    k = 0.99 * f0
    call = price(a, "vix", k, True)
    put = price(a, "vix", k, False)
    proxy_mean = float(terminal_values(a, "vix").mean())
    if abs((call.value - put.value) - (proxy_mean - k)) > 1e-12:
        failures.append("put-call parity identity violated beyond 1e-12")
    report("criterion 8: property suite (positivity, round trip, determinism, parity)", failures)
