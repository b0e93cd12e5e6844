"""Output checks: every row a command prints is attempted once and fails at
most once.  A row fails when its command returned nonzero, when it is
missing (an MC strike the pricer skipped), when it holds a non-finite value,
or when it breaks one of the tolerances below.

The reference (reference.json) is the output of this commit at the
benchmark's default seed.  Other seeds shift the strikes slightly, so the
reference is interpolated in log-moneyness: a cubic spline for the smooth
asymptotic columns, linear for the noisy MC columns.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from lsv_shortmat.model import ConstantLocalVol, load_model
from lsv_shortmat.rate_solver import sabr_rate_closed

# table1 prints 3 decimals: allow one unit of the last digit
TABLE1_TOL = 1e-3 + 1e-9
# |iv_rate - iv_expansion| within |log-moneyness| <= NEAR_MONEY, where the
# largest residual at this commit is 5.4e-4, on the square-root models at
# |k| = 0.05, where the expansion's higher-order terms are largest
NEAR_MONEY = 0.05
NEAR_MONEY_TOL = 1e-3
# |iv_rate - |k| / sqrt(2 sabr_rate_closed)| on the constant-local-vol model
SABR_TOL = 1e-6
# MC implied vol against the reference MC smile: this many combined
# standard errors sqrt(se^2 + se_ref^2)
MC_Z = 5.0

REFERENCE_SEED = 0


@dataclass
class Columns:
    """Parsed numeric output of one command."""

    rows: int = 0
    finite: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    values: dict[str, np.ndarray] = field(default_factory=dict)


def parse(kind: str, text: str) -> Columns:
    """Columns of a command's CSV output by kind of command."""
    lines = list(csv.reader(io.StringIO(text)))[1:]
    cols = Columns(rows=len(lines))
    if not lines:
        return cols
    data = np.array([[float(x) for x in row] for row in lines], dtype=float)
    cols.finite = np.all(np.isfinite(data), axis=1)
    if kind == "table1":
        cols.values["table"] = data
    elif kind == "smile":
        cols.values.update(log_m=data[:, 1], iv_expansion=data[:, 2], iv_rate=data[:, 3])
    elif kind == "compare":
        cols.values.update(log_m=data[:, 1], iv_expansion=data[:, 2], iv_rate=data[:, 3],
                           mc_iv=data[:, 4], mc_band=data[:, 5])
    elif kind == "mc":
        cols.values.update(log_m=data[:, 1], mc_iv=data[:, 4], mc_band=data[:, 6] - data[:, 4])
    return cols


def _linear(x_ref: np.ndarray, y_ref: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolation, extrapolated from the end segments."""
    y = np.interp(x, x_ref, y_ref)
    lo, hi = x < x_ref[0], x > x_ref[-1]
    y[lo] = y_ref[0] + (x[lo] - x_ref[0]) * (y_ref[1] - y_ref[0]) / (x_ref[1] - x_ref[0])
    y[hi] = y_ref[-1] + (x[hi] - x_ref[-1]) * (y_ref[-1] - y_ref[-2]) / (x_ref[-1] - x_ref[-2])
    return y


@dataclass
class CommandCheck:
    attempted: int
    failed: int
    reasons: list[str]
    # max |column - reference| for the asymptotic columns present
    deviation: dict[str, float]


def check_command(cmd, rc: int, text: str, ref: dict) -> CommandCheck:
    """Check one command's output against the tolerances and the reference."""
    expected = cmd.expected_rows
    if rc != 0:
        return CommandCheck(expected, expected, [f"{cmd.key}: exit code {rc}"], {})
    try:
        cols = parse(cmd.kind, text)
    except (ValueError, IndexError) as exc:
        return CommandCheck(expected, expected, [f"{cmd.key}: unreadable output ({exc})"], {})
    bad = ~cols.finite
    reasons = []
    if cols.rows < expected:
        reasons.append(f"{cmd.key}: {expected - cols.rows} row(s) missing")
    if bad.any():
        reasons.append(f"{cmd.key}: {int(bad.sum())} row(s) with non-finite values")
    v = cols.values
    deviation = {}
    if cmd.kind == "table1" and cols.rows == len(ref["table"]):
        off = np.max(np.abs(v["table"] - np.asarray(ref["table"])), axis=1) > TABLE1_TOL
        _flag(reasons, bad, off, f"{cmd.key}: differs from the reference by more than {TABLE1_TOL:g}")
    if "iv_rate" in v:
        k = v["log_m"]
        near = (np.abs(k) <= NEAR_MONEY) & (np.abs(v["iv_rate"] - v["iv_expansion"]) > NEAR_MONEY_TOL)
        _flag(reasons, bad, near, f"{cmd.key}: |iv_rate - iv_expansion| > {NEAR_MONEY_TOL:g} near the money")
        ref_k = np.asarray(ref["log_m"])
        for col in ("iv_expansion", "iv_rate"):
            expect = CubicSpline(ref_k, np.asarray(ref[col]))(k)
            deviation[col] = float(np.max(np.abs(v[col] - expect)))
        model = load_model(cmd.model_path)
        if cmd.product == "european" and isinstance(model.local_vol, ConstantLocalVol):
            # |k| / sqrt(2 J) written out here, so that the oracle shares no
            # code with the CLI's rate-to-vol conversion
            oracle = np.array([abs(x) / math.sqrt(2.0 * sabr_rate_closed(model, model.s0 * math.exp(x)))
                               for x in k])
            off = np.abs(v["iv_rate"] - oracle) > SABR_TOL
            _flag(reasons, bad, off, f"{cmd.key}: iv_rate off sabr_rate_closed by more than {SABR_TOL:g}")
    if "mc_iv" in v:
        ref_k = np.asarray(ref["log_m"])
        expect = _linear(ref_k, np.asarray(ref["mc_iv"]), v["log_m"])
        band = np.hypot(v["mc_band"], _linear(ref_k, np.asarray(ref["mc_band"]), v["log_m"]))
        off = ~(np.abs(v["mc_iv"] - expect) <= MC_Z * band)
        _flag(reasons, bad, off, f"{cmd.key}: MC implied vol off the reference by more than {MC_Z:g} bands")
    failed = int(bad.sum()) + max(expected - cols.rows, 0)
    return CommandCheck(expected, min(failed, expected), reasons, deviation)


def check_passes(lines, passes, ref_entries: list[dict]) -> tuple[int, int, list[str], dict[str, float]]:
    """Check every row of every pass against the workload's reference
    entries (one per command, in order); returns rows attempted, rows
    failed, the distinct failure reasons and the largest deviation per
    column."""
    if len(ref_entries) != len(lines):
        raise ValueError("the reference does not match the workload's command list")
    attempted = failed = 0
    reasons: set[str] = set()
    deviation: dict[str, float] = {}
    for results in passes:
        for (cmd, _argv), (rc, text, *_times), ref in zip(lines, results, ref_entries):
            res = check_command(cmd, rc, text, ref)
            attempted += res.attempted
            failed += res.failed
            reasons.update(res.reasons)
            for col, dev in res.deviation.items():
                deviation[col] = max(deviation.get(col, 0.0), dev)
    return attempted, failed, sorted(reasons), deviation


def _flag(reasons: list[str], bad: np.ndarray, off: np.ndarray, message: str) -> None:
    new = off & ~bad
    if new.any():
        reasons.append(f"{message} ({int(new.sum())} row(s))")
    bad |= off


def reference_entry(cmd, text: str) -> dict:
    """What the reference keeps of one command's output."""
    return {k: v.tolist() for k, v in parse(cmd.kind, text).values.items()}


def digest(outputs: list[tuple[str, str]]) -> str:
    """SHA-256 over (command key, CSV text) of one pass, in command order."""
    h = hashlib.sha256()
    for key, text in outputs:
        h.update(key.encode() + b"\n" + text.encode())
    return h.hexdigest()
