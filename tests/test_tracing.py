"""The benchmark's tracer rebinds module attributes of the package by name;
a refactor that drops one of them fails here rather than in a traced run."""

import importlib.util
import math
from pathlib import Path

from lsv_shortmat import heston_rate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODELS = TRACING.parent / "models"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_enters_and_restores():
    tracing = _load_tracing()
    names = ("cumulant", "legendre_point", "rate_IH_numeric", "rate_IH_series", "minimize")
    before = {name: getattr(heston_rate, name) for name in names}
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert all(getattr(heston_rate, name) is not before[name] for name in names)
        heston_rate.rate_IH_numeric(math.exp(0.5), 1.0, 1.0)
    assert all(getattr(heston_rate, name) is before[name] for name in names)
    assert tracer.counts["heston_rate.rate_IH_numeric"] == 1
    assert len(tracer.records["heston_rate.legendre_point"]) == 1


def test_traced_vix_smile_records_its_solves(capsys):
    # the tracer rebinds rate_solver.eta_sq_inverse and integral_IS, which
    # only it reads on the VIX path; a VIX smile must still run under it
    tracing = _load_tracing()
    from lsv_shortmat import cli

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        rc = cli.main(["smile", "--model", str(MODELS / "tanh_sqrt_rho_m07.json"), "--product", "vix",
                       "--kmin=-0.2", "--kmax=0.2", "--kcount", "4"])
    assert rc in (0, None)
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 4 and all("nan" not in row for row in rows)
    points = tracer.records["rate_solver.vix_rate"]
    assert len(points) == 4
    assert all(converged for _iterations, converged, _boundary in points)
