"""Benchmark of the ``lsv-shortmat`` CLI, run from the repository root:

    python3 perfbench/run.py --workload smile-lognormal --seed 0 --seconds 20 --trace 0

One client issues the workload's commands through ``lsv_shortmat.cli.main``
in this process, one after another (a closed loop).  After one whole pass
over the list it goes on, pass after pass, while the next command is
expected to end within ``--seconds``; the last pass may stop part-way.
Every command is bracketed by two runs of a host-speed kernel and its time
is scaled by them (see hostspeed.py).  Every output row is checked (see
check.py).  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds
one traced pass and prints the per-layer metrics.  The last line of stdout
is the JSON result; the full run record goes to perfbench/out/.
"""

from __future__ import annotations

import os
import sys

# pin every BLAS/OpenMP pool to one thread and use the CLI's own thread
# default, before numpy is imported anywhere in this process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("LSV_SHORTMAT_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import hostspeed  # noqa: E402
from workloads import WORKLOADS, command_lines  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath("src")
OUT_DIR = os.path.join("perfbench", "out")
REFERENCE = os.path.join("perfbench", "reference.json")
# fresh-interpreter set-ups timed per run; setup_s is their median
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0


def import_package():
    """Import ``lsv_shortmat`` from ./src, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "lsv_shortmat", "cli.py")):
        raise SystemExit("error: src/lsv_shortmat not found; run from the repository root")
    sys.path.insert(0, SRC)
    from lsv_shortmat import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: lsv_shortmat imported from {cli.__file__}, not from {SRC}")
    return cli


def time_setup(model_paths: list[str]) -> float:
    """Seconds from starting a fresh interpreter until it has imported the
    CLI and loaded the workload's models.  Not scaled: the probe may run on
    another CPU than the kernels, and scaling widened the spread of set-up
    samples (IQR / median 0.35 scaled, 0.18 raw, over 20 samples)."""
    probe = os.path.join(HERE, "setup_probe.py")
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, probe, SRC, *model_paths], stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - start
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_command(main, argv: list[str]) -> tuple[int, str, float]:
    """Run one CLI command in-process; returns (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing command counts as failed; keep measuring
        traceback.print_exc()
        rc = -1
    elapsed = time.perf_counter() - start
    if rc != 0:
        print(f"command failed ({rc}): {' '.join(argv)}\n{err.getvalue()[-2000:]}", file=sys.stderr)
    return rc, out.getvalue(), elapsed


def timed_command(main, cmd, argv, bracket) -> tuple[int, str, float, float]:
    """Run one command between two runs of its host-speed kernel; returns
    (exit code, stdout, scaled seconds, raw seconds)."""
    before = bracket.before(cmd.kernel)
    rc, out, secs = run_command(main, argv)
    after = bracket.after(cmd.kernel)
    return rc, out, secs * hostspeed.scale(cmd.kernel, before, after), secs


def run_pass(main, lines, tracer=None) -> list[tuple[int, str, float, float]]:
    bracket = hostspeed.Bracket()
    results = []
    for i, (cmd, argv) in enumerate(lines):
        if tracer is not None:
            tracer.command_id = i
        results.append(timed_command(main, cmd, argv, bracket))
    return results


def run_for(main, lines, seconds: float) -> list[list[tuple[int, str, float, float]]]:
    """One whole pass over ``lines``, then further commands in order while
    the next one, at its first-pass raw time, is expected to end within
    ``seconds``.  The last pass may be partial."""
    bracket = hostspeed.Bracket()
    passes: list[list] = []
    start = time.perf_counter()
    for i in itertools.count():
        n_pass, j = divmod(i, len(lines))
        if n_pass and time.perf_counter() - start + passes[0][j][3] > seconds:
            return passes
        if j == 0:
            passes.append([])
        passes[-1].append(timed_command(main, *lines[j], bracket))


def run_record() -> dict:
    """Machine, toolchain and source provenance stored with every result."""
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    h = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": h.hexdigest(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ./.git only (None when absent)."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            with open(os.path.join(".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for ln in fh:
                parts = ln.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def median_times(passes) -> list[float]:
    """Each command's median scaled time over the passes that ran it, which
    a burst of load on a shared machine moves less than the pass totals."""
    return [statistics.median(results[i][2] for results in passes if len(results) > i)
            for i in range(len(passes[0]))]


def pass_wall_s(passes) -> float:
    """One pass's time: the sum of the commands' median times."""
    return sum(median_times(passes))


def end_to_end(lines, passes, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics of the untraced passes, from scaled times.
    Each rate sums the median times of the commands it covers, so it weighs
    every command of the workload alike whichever happens to be slowest in
    a run."""
    secs = median_times(passes)

    def totals(select, work):
        chosen = [i for i, (cmd, _) in enumerate(lines) if select(cmd)]
        return sum(work(lines[i][0]) for i in chosen), sum(secs[i] for i in chosen)

    eur_strikes, eur_s = totals(lambda c: c.kind == "smile" and c.product == "european", lambda c: c.kcount)
    vix_strikes, vix_s = totals(lambda c: c.kind == "smile" and c.product == "vix", lambda c: c.kcount)
    path_steps, mc_s = totals(lambda c: c.is_mc, lambda c: c.paths * c.steps)
    return {
        "setup_s": setup_s,
        "wall_s": sum(secs),
        "eur_ms_per_strike": 1e3 * eur_s / eur_strikes,
        "vix_ms_per_strike": 1e3 * vix_s / vix_strikes,
        "mc_path_steps_per_s": path_steps / mc_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_package()
    import check
    import tracing

    units = declared_units(args.trace)
    lines = command_lines(args.workload, args.seed)
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    models = sorted({cmd.model_path for cmd, _ in lines if cmd.model})
    hostspeed.warm_up()
    setup_samples = [] if args.trace else [time_setup(models) for _ in range(SETUP_SAMPLES)]

    passes = run_for(cli.main, lines, args.seconds)

    passes_checked = passes
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            traced = run_pass(tracer.span("cli.main", cli.main), lines, tracer)
        passes_checked = passes + [traced]

    ref_entries = reference["commands"][args.workload]
    attempted, failed, reasons, deviation = check.check_passes(lines, passes_checked, ref_entries)
    digests = [check.digest([(cmd.key, r[1]) for (cmd, _), r in zip(lines, results)])
               for results in passes_checked if len(results) == len(lines)]
    ref_digest = reference["digest"].get(args.workload) if args.seed == reference["seed"] else None

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f" ({sum(map(len, passes))} commands)  trace {args.trace}")
    for ln in reasons:
        print(f"FAIL {ln}")
    match = "n/a (not the reference seed)" if ref_digest is None else (
        "match" if digests[0] == ref_digest else "DIFFERENT")
    print(f"output digest {digests[0]}  reference: {match}"
          + ("" if len(set(digests)) == 1 else "  (passes differ!)"))
    for col in ("iv_expansion", "iv_rate"):
        if col in deviation:
            print(f"max |{col} - reference| = {deviation[col]:.3e}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "run_record": run_record(),
              "commands": [argv for _, argv in lines],
              "command_scaled_s": [[r[2] for r in results] for results in passes],
              "command_raw_s": [[r[3] for r in results] for results in passes],
              "setup_samples_s": setup_samples, "digest": digests[0],
              "reference_digest_match": None if ref_digest is None else digests[0] == ref_digest,
              "max_abs_deviation_from_reference": deviation,
              "attempted": attempted, "failed": failed, "failure_reasons": reasons}
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        metrics = tracing.layer_metrics(tracer, pass_wall_s(passes), pass_wall_s([traced]))
        tracer.write(os.path.join(OUT_DIR, f"{args.workload}-spans.tsv"))
    else:
        metrics = end_to_end(lines, passes, statistics.median(setup_samples))
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    failed_frac = failed / attempted
    print(f"metric failed_frac {failed_frac:.6g} ratio")
    result = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    record["metrics"] = {**result, "failed_frac": {"value": failed_frac, "unit": "ratio"}}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    # failed_frac travels as attempted/failed: the metrics object holds only
    # the metrics BENCHMARK.json lists, none of which may read 0
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
