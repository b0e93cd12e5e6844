"""Command-line interface.

Subcommands:

* ``table1``  - closed-form smile parameters of the bounded-tanh benchmark
  model on the three benchmark correlations.
* ``smile``   - asymptotic implied vol per strike, from the quadratic
  expansion and from the rate-function solve: |k| / sqrt(2 J) at k != 0
  (J within 6.2e-16 of mpmath for 1e-8 <= |k| <= 0.3 on the constant-eta
  lognormal model), the ATM level at k = 0.  That column (here and in
  ``compare``) is nan where the solve is not certified or J is no positive
  normal float; the expansion's is nan where it is not positive, no vol.
* ``rate``    - rate-function values and minimiser diagnostics per strike.
* ``mc``      - Monte Carlo implied-vol smile with error bands.
* ``compare`` - asymptotics and Monte Carlo joined, with z-scores.

``mc`` and ``compare`` simulate --paths paths as --paths / 2 antithetic
pairs: a path and its mirror image on the negated draws.  Each error band
(``std_error``, ``iv_low``/``iv_high``, and the band ``z_score`` divides by)
comes from the pair means, one independent sample per pair.

Model parameters come from a JSON file (--model); run parameters are flags.
The effective configuration is echoed to stderr for reproducibility.  Output
is RFC-4180 CSV with '.' decimals, written to --out or stdout; no field
needs quoting, so each row is its fields joined by commas.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .model import (
    LognormalVolOfVol,
    LsvModel,
    TanhLocalVol,
    elasticity,
    load_model,
    model_to_dict,
    vix_spot,
)
from .rate_solver import european_rate, rate_to_impvol, vix_rate
from .smile import (
    SmileExpansion,
    european_expansion_heston_type,
    european_expansion_sabr_type,
    vix_expansion_heston_type,
    vix_expansion_sabr_type,
)

__all__ = ["main"]

_DEF_PATHS = 100_000
_DEF_STEPS = 200
_DEF_SEED = 12345
_DEF_MATURITY = {"european": 1.0 / 12.0, "vix": 1.0 / 52.0}
# the |log-moneyness| from which exp(k) or exp(-k) overflows; below it
# exp(k) is a finite positive float
_MAX_ABS_K = math.log(sys.float_info.max)

# The Monte Carlo names, imported (and numpy and the thread pool with them)
# only when a Monte Carlo command runs or a caller asks this module for one.
# They stay module attributes, called through the module globals, so that a
# caller may rebind them (a tracer's wrapper, say) and the commands see it.
_MC_NAMES = ("McConfig", "default_strike_grid", "simulate_paths", "smile_from_mc")

TABLE1_HEADER = ["rho", "sigma_e_atm", "s_e", "kappa_e", "sigma_vix_atm", "s_vix", "kappa_vix"]
SMILE_HEADER = ["strike", "log_moneyness", "iv_expansion", "iv_rate"]
MC_HEADER = ["strike", "log_moneyness", "price", "std_error", "implied_vol", "iv_low", "iv_high"]
RATE_HEADER = ["strike", "log_moneyness", "rate", "minimizer_y", "minimizer_z", "iterations", "converged"]
COMPARE_HEADER = ["strike", "log_moneyness", "iv_expansion", "iv_rate",
                  "mc_implied_vol", "mc_iv_std_error", "diff", "z_score"]


def _expansion_for(model: LsvModel, product: str) -> SmileExpansion:
    lognormal = elasticity(model.vol_of_vol, model.v0) == 0.0
    if product == "european":
        return european_expansion_sabr_type(model) if lognormal else european_expansion_heston_type(model)
    return vix_expansion_sabr_type(model) if lognormal else vix_expansion_heston_type(model)


def _reference_level(model: LsvModel, product: str) -> float:
    return model.s0 if product == "european" else vix_spot(model)


def _bind_mc_engine() -> None:
    """Bind the names of :data:`_MC_NAMES` as module globals, keeping any
    that is already bound."""
    from . import mc_engine

    for name in _MC_NAMES:
        globals().setdefault(name, getattr(mc_engine, name))


def __getattr__(name: str):
    if name in _MC_NAMES:
        _bind_mc_engine()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _log_moneyness_grid(kmin: float, kmax: float, count: int) -> list[float]:
    """``count`` points from kmin to kmax, bit for bit those of
    ``numpy.linspace``: kmin + i * step with the last point set to kmax."""
    div = max(count - 1, 1)
    delta = kmax - kmin
    step = delta / div
    if step == 0.0:
        # the step underflowed; numpy then scales i / div by delta
        grid = [kmin + i / div * delta for i in range(count)]
    else:
        grid = [kmin + i * step for i in range(count)]
    if count > 1:
        grid[-1] = kmax
    return grid


def _strike_grid(args, reference: float) -> list[float]:
    strikes = [reference * math.exp(k) for k in _log_moneyness_grid(args.kmin, args.kmax, args.kcount)]
    if not all(0.0 < strike < math.inf for strike in strikes):
        raise ValueError(f"the strike range {reference!r} * exp([{args.kmin!r}, {args.kmax!r}]) "
                         "leaves the finite positive floats")
    return strikes


def _write_csv(header, rows, out_path: str | None) -> None:
    text = "".join(",".join(row) + "\n" for row in [header, *rows])
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _echo_config(args, model: LsvModel | None) -> None:
    eff = {k: v for k, v in vars(args).items() if k not in ("func",)}
    if "paths" in args:
        eff.update(antithetic=True, pairs=args.paths // 2)
    if model is not None:
        eff["model"] = model_to_dict(model)
    print(json.dumps({"effective_config": eff}, sort_keys=True), file=sys.stderr)


def _rate_point(model: LsvModel, product: str, strike: float):
    if product == "european":
        return european_rate(model, strike)
    return vix_rate(model, strike)


def _expansion_vol(expansion: SmileExpansion, log_m: float) -> float:
    """The truncated expansion at log_m, or nan where it is not positive."""
    vol = expansion.evaluate(log_m)
    return math.nan if vol <= 0.0 else vol


def _iv_rate_column(model: LsvModel, product: str, expansion: SmileExpansion, strike: float, log_m: float) -> float:
    """The rate-solver vol, the expansion's ATM level at k = 0, or nan where
    the solve is not certified or J is no positive normal float."""
    if log_m == 0.0:
        return _expansion_vol(expansion, log_m)
    pt = _rate_point(model, product, strike)
    return rate_to_impvol(pt.rate, log_m) if pt.converged and pt.rate >= sys.float_info.min else math.nan


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_table1(args, _) -> int:
    model_base = dict(
        s0=1.0, v0=0.1,
        local_vol=TanhLocalVol(f0=1.0, f1=-0.5, x0=0.0),
        vol_of_vol=LognormalVolOfVol(sigma=2.0),
    )
    rows = []
    for rho in (-0.7, 0.0, 0.7):
        model = LsvModel(rho=rho, **model_base)
        eur = european_expansion_sabr_type(model)
        vix = vix_expansion_sabr_type(model)
        rows.append([
            f"{rho:g}",
            f"{eur.atm:.3f}", f"{eur.skew:.3f}", f"{eur.convexity:.3f}",
            f"{vix.atm:.3f}", f"{vix.skew:.3f}", f"{vix.convexity:.3f}",
        ])
    _write_csv(TABLE1_HEADER, rows, args.out)
    return 0


def _cmd_smile(args, model: LsvModel) -> int:
    expansion = _expansion_for(model, args.product)
    reference = _reference_level(model, args.product)
    rows = []
    for strike in _strike_grid(args, reference):
        log_m = math.log(strike / reference)
        iv_exp = _expansion_vol(expansion, log_m)
        iv_rate = _iv_rate_column(model, args.product, expansion, strike, log_m)
        rows.append([f"{strike:.10g}", f"{log_m:.10g}", f"{iv_exp:.10g}", f"{iv_rate:.10g}"])
    _write_csv(SMILE_HEADER, rows, args.out)
    return 0


def _cmd_rate(args, model: LsvModel) -> int:
    reference = _reference_level(model, args.product)
    rows = []
    for strike in _strike_grid(args, reference):
        log_m = math.log(strike / reference)
        pt = _rate_point(model, args.product, strike)
        rows.append([
            f"{strike:.10g}", f"{log_m:.10g}", f"{pt.rate:.10g}",
            f"{pt.minimizer_y:.10g}", f"{pt.minimizer_z:.10g}",
            str(pt.iterations), str(pt.converged).lower(),
        ])
    _write_csv(RATE_HEADER, rows, args.out)
    return 0


def _mc_smile(args, model: LsvModel):
    """The MC smile on the --kmin/--kmax grid, else on the sample-quantile grid."""
    _bind_mc_engine()
    maturity = args.maturity if args.maturity is not None else _DEF_MATURITY[args.product]
    # --paths counts simulated paths, drawn as mirrored pairs
    config = McConfig(n_paths=args.paths // 2, n_steps=args.steps, maturity=maturity, seed=args.seed,
                      antithetic=True)
    samples = simulate_paths(model, config)
    if args.kmin is not None:
        strikes = _strike_grid(args, _reference_level(model, args.product))
    else:
        strikes = default_strike_grid(samples, args.product, args.kcount)
    return smile_from_mc(samples, strikes, args.product)


def _cmd_mc(args, model: LsvModel) -> int:
    rows = [
        [f"{p.strike:.10g}", f"{p.log_moneyness:.10g}", f"{p.price:.10g}", f"{p.std_error:.10g}",
         f"{p.implied_vol:.10g}", f"{p.iv_low:.10g}", f"{p.iv_high:.10g}"]
        for p in _mc_smile(args, model) if p.skip_reason is None
    ]
    _write_csv(MC_HEADER, rows, args.out)
    return 0


def _cmd_compare(args, model: LsvModel) -> int:
    mc_rows = _mc_smile(args, model)
    expansion = _expansion_for(model, args.product)
    rows = []
    for point in mc_rows:
        log_m = point.log_moneyness
        iv_exp = _expansion_vol(expansion, log_m)
        iv_rate = _iv_rate_column(model, args.product, expansion, point.strike, log_m)
        if point.skip_reason is None:
            band = point.iv_high - point.implied_vol
            diff = point.implied_vol - iv_exp
            z = diff / band if band > 0.0 else math.nan
            mc_iv, mc_se = point.implied_vol, band
        else:
            mc_iv = mc_se = diff = z = math.nan
        rows.append([
            f"{point.strike:.10g}", f"{log_m:.10g}", f"{iv_exp:.10g}", f"{iv_rate:.10g}",
            f"{mc_iv:.10g}", f"{mc_se:.10g}", f"{diff:.10g}", f"{z:.10g}",
        ])
    _write_csv(COMPARE_HEADER, rows, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process.  Its subcommands share their options
    through parent parsers, and argparse shares a parent's actions, defaults
    included, among every parser built from it: so no subparser sets a
    default of an option it has from a parent."""
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output CSV path (default: stdout)")

    # every command that prices strikes of a model file
    model = argparse.ArgumentParser(add_help=False, parents=[out])
    model.add_argument("--model", required=True, help="model JSON file")
    model.add_argument("--product", choices=("european", "vix"), default="european")
    model.add_argument("--kcount", type=int, default=21, help="number of strikes")

    # smile/rate need concrete default bounds; mc/compare derive theirs from
    # sample quantiles when none are given
    fixed_range = argparse.ArgumentParser(add_help=False, parents=[model])
    quantile_range = argparse.ArgumentParser(add_help=False, parents=[model])
    for parent, kmin, kmax in ((fixed_range, -0.3, 0.3), (quantile_range, None, None)):
        parent.add_argument("--kmin", type=float, default=kmin, help="lowest log-moneyness")
        parent.add_argument("--kmax", type=float, default=kmax, help="highest log-moneyness")

    mc = argparse.ArgumentParser(add_help=False, parents=[quantile_range])
    mc.add_argument("--paths", type=int, default=_DEF_PATHS,
                    help="simulated paths, an even count of at least 4, drawn as antithetic pairs")
    mc.add_argument("--steps", type=int, default=_DEF_STEPS, help="time steps per path, at least 1")
    mc.add_argument("--seed", type=int, default=_DEF_SEED)
    mc.add_argument("--maturity", type=float, default=None,
                    help="years; defaults to 1/12 (european) or 1/52 (vix)")

    parser = argparse.ArgumentParser(
        prog="lsv-shortmat",
        description="Short-maturity European/VIX smile asymptotics and Monte Carlo validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, parent, help_text in (
        ("table1", _cmd_table1, out, "benchmark-model smile parameters (closed forms)"),
        ("smile", _cmd_smile, fixed_range, "asymptotic smile: expansion and rate-solver columns"),
        ("rate", _cmd_rate, fixed_range, "rate-function values per strike"),
        ("mc", _cmd_mc, mc, "Monte Carlo implied-vol smile"),
        ("compare", _cmd_compare, mc, "asymptotics vs Monte Carlo"),
    ):
        sub.add_parser(name, parents=[parent], help=help_text).set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the path and step counts and the strike range are checked before a
    # model is read or a path simulated
    if "paths" in args and (args.paths < 4 or args.paths % 2):
        # two pairs are the fewest whose pair means give a standard error
        parser.error("--paths must be an even count of at least 4")
    if "steps" in args and args.steps < 1:
        parser.error("--steps must be at least 1")
    if "kcount" in args:
        if args.kcount < 1:
            parser.error("--kcount must be at least 1")
        if (args.kmin is None) != (args.kmax is None):
            parser.error("--kmin and --kmax must be given together")
        if args.kmin is not None:
            # a nan end would pass the order check below
            if not (math.isfinite(args.kmin) and math.isfinite(args.kmax)):
                parser.error("--kmin and --kmax must be finite")
            if max(abs(args.kmin), abs(args.kmax)) >= _MAX_ABS_K:
                parser.error(f"--kmin and --kmax must lie within +-{_MAX_ABS_K:.2f}, "
                             "beyond which exp(k) is no finite positive float")
            if args.kmin >= args.kmax:
                parser.error("--kmin must be below --kmax")
    try:
        model = load_model(args.model) if "model" in args else None
        _echo_config(args, model)
        return args.func(args, model)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
