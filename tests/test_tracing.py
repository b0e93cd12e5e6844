"""The benchmark's tracer rebinds module attributes of the package by name;
a refactor that drops one of them fails here rather than in a traced run."""

import importlib.util
import math
from pathlib import Path

from lsv_shortmat import heston_rate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
