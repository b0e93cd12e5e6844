"""Structural ratchets on the package source.

Each spec class owns its formulas, so callers dispatch on the class rather
than test its type.  The number of ``isinstance`` calls may only fall, and
every spec class exposes the same methods as the others of its kind, so a
new spec cannot quietly need a type ladder in a caller.  Every scalar root
goes through the one safeguarded solver in ``_roots``, so no module brings
in another.  Monte Carlo pricing reads everything it needs from the
samples, tells the products apart in one place and leaves output formats
to the CLI.  A model file is read and written through one ``{kind: class}``
table per spec kind, never by per-class JSON code.  The package reads no
environment variables, and the Monte Carlo engine works out its own worker
count, so no caller passes one.
"""

import ast
import inspect
import typing
from pathlib import Path

import pytest

from lsv_shortmat import mc_engine, model

PACKAGE = Path(model.__file__).resolve().parent
# the remaining sites: cli._expansion_for, smile._require and the two input
# guards of rate_solver.sabr_rate_closed
MAX_ISINSTANCE = 6

# scipy root finders the package solver replaces
FOREIGN_ROOT_FINDERS = {"brentq", "bisect", "newton", "root_scalar"}
# scipy.optimize names that stay imported only because the benchmark tracer
# (perfbench/tracing.py) rebinds them on the package's modules
TRACED_OPTIMIZE_NAMES = {"minimize", "minimize_scalar"}

SPEC_KINDS = {
    "LocalVol": model.LocalVolSpec,
    "Drift": model.DriftSpec,
    "VolOfVol": model.VolOfVolSpec,
}


def test_isinstance_sites():
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
    ]
    assert len(sites) <= MAX_ISINSTANCE, sites


def test_one_root_solver():
    foreign, optimize_names, definitions = [], set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                foreign += [f"{path.name}:{node.lineno}:{n}" for n in sorted(names & FOREIGN_ROOT_FINDERS)]
                if node.module == "scipy.optimize":
                    optimize_names |= names
            elif isinstance(node, ast.Attribute) and node.attr in FOREIGN_ROOT_FINDERS:
                foreign.append(f"{path.name}:{node.lineno}:{node.attr}")
            elif isinstance(node, ast.FunctionDef) and node.name == "newton_bracketed":
                definitions.append(path.name)
    assert not foreign, foreign
    assert optimize_names <= TRACED_OPTIMIZE_NAMES, optimize_names
    assert definitions == ["_roots.py"]


def _public_methods(cls) -> set[str]:
    return {name for name, _ in inspect.getmembers(cls, inspect.isfunction) if not name.startswith("_")}


@pytest.mark.parametrize("suffix", sorted(SPEC_KINDS))
def test_spec_classes_share_one_method_set(suffix):
    classes = typing.get_args(SPEC_KINDS[suffix])
    defined = {obj for obj in vars(model).values()
               if inspect.isclass(obj) and obj.__module__ == model.__name__ and obj.__name__.endswith(suffix)}
    assert set(classes) == defined, "every spec class belongs to its kind's Union"
    methods = {cls.__name__: _public_methods(cls) for cls in classes}
    first = methods[classes[0].__name__]
    assert first, "spec classes carry their formulas as methods"
    assert all(m == first for m in methods.values()), methods


def test_kind_tables_list_every_spec_class_once():
    listed = [cls for table in model._KINDS.values() for cls in table.values()]
    spec_classes = [cls for union in SPEC_KINDS.values() for cls in typing.get_args(union)]
    assert sorted(c.__name__ for c in listed) == sorted(c.__name__ for c in spec_classes)
    for field_name, union in (("local_vol", model.LocalVolSpec), ("drift", model.DriftSpec),
                              ("vol_of_vol", model.VolOfVolSpec)):
        assert set(model._KINDS[field_name].values()) == set(typing.get_args(union)), field_name


def test_no_per_class_json_code():
    spec_classes = [cls for union in SPEC_KINDS.values() for cls in typing.get_args(union)]
    assert not [cls.__name__ for cls in spec_classes + [model.LsvModel] if "to_dict" in vars(cls)]
    assert not [name for name in vars(model) if name.endswith("_from_dict") and name != "model_from_dict"]


# what McSamples already carries, by parameter name
SAMPLES_RESTATED = {"model", "config", "maturity", "r", "threads"}


def test_mc_pricing_takes_only_samples():
    offenders = []
    for name in mc_engine.__all__:
        obj = getattr(mc_engine, name)
        if not inspect.isfunction(obj):
            continue
        params = inspect.signature(obj).parameters
        if "samples" not in params:
            continue
        restated = {p for p, spec in params.items()
                    if p in SAMPLES_RESTATED or spec.annotation in ("LocalVolSpec", model.LocalVolSpec)}
        offenders += [f"{name}({p})" for p in sorted(restated)]
    assert not offenders, offenders


def _mc_engine_tree():
    return ast.parse(Path(mc_engine.__file__).read_text(encoding="utf-8"))


def test_mc_engine_leaves_csv_to_the_cli():
    imported = set()
    for node in ast.walk(_mc_engine_tree()):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert not imported & {"csv", "io"}, imported


def test_mc_engine_has_one_product_switch():
    switches = [
        fn.name
        for fn in ast.walk(_mc_engine_tree()) if isinstance(fn, ast.FunctionDef)
        if any(isinstance(node, ast.Compare) and isinstance(node.left, ast.Name) and node.left.id == "product"
               for node in ast.walk(fn))
    ]
    assert switches == ["_underlying"], switches


ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_no_environment_reads():
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr in ENV_READERS)
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and {a.name for a in node.names} & ENV_READERS)
    ]
    assert not reads, reads


def test_simulate_paths_takes_no_worker_count():
    # the engine sizes its pool from the CPUs it may use; a new parameter
    # must be added here deliberately
    assert list(inspect.signature(mc_engine.simulate_paths).parameters) == ["model", "config", "aux_const_vol"]
