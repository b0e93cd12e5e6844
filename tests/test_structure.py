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
count, so no caller passes one.  The package runs on numpy alone: scipy is
imported only by the module ``__getattr__`` hooks that hand the benchmark
tracer the scipy minimisers it counts, so no CLI run loads it.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from lsv_shortmat import heston_rate, mc_engine, model, rate_solver

PACKAGE = Path(model.__file__).resolve().parent
# the remaining sites: cli._expansion_for, smile._require and the two input
# guards of rate_solver.sabr_rate_closed
MAX_ISINSTANCE = 6

# scipy root finders the package solver replaces
FOREIGN_ROOT_FINDERS = {"brentq", "bisect", "newton", "root_scalar"}

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


def _imported_modules(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module]
    return []


def test_one_root_solver():
    foreign, scipy_imports, definitions = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # the one place scipy may be imported: `import scipy.optimize` in a
        # module-level __getattr__, which runs only when a tracer asks for it
        hooked = {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "__getattr__"
                  for node in ast.walk(fn) if _imported_modules(node) == ["scipy.optimize"]}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                foreign += [f"{path.name}:{node.lineno}:{n}" for n in sorted(names & FOREIGN_ROOT_FINDERS)]
            elif isinstance(node, ast.Attribute) and node.attr in FOREIGN_ROOT_FINDERS:
                foreign.append(f"{path.name}:{node.lineno}:{node.attr}")
            elif isinstance(node, ast.FunctionDef) and node.name == "newton_bracketed":
                definitions.append(path.name)
            if id(node) not in hooked and any(m.split(".")[0] == "scipy" for m in _imported_modules(node)):
                scipy_imports.append(f"{path.name}:{node.lineno}")
    assert not foreign, foreign
    assert not scipy_imports, scipy_imports
    assert definitions == ["_roots.py"]


# every subcommand once, in one fresh interpreter, on a tanh lognormal and
# a tanh square-root model; prints the scipy modules loaded at the end
CLI_WITHOUT_SCIPY = """
import contextlib, io, json, sys
import lsv_shortmat.cli as cli

models = sys.argv[1:]
runs = [["table1"]]
for path in models:
    for product in ("european", "vix"):
        runs.append(["smile", "--model", path, "--product", product, "--kcount", "3"])
    runs.append(["rate", "--model", path, "--kcount", "3"])
    for command in ("mc", "compare"):
        runs.append([command, "--model", path, "--paths", "4096", "--steps", "10", "--kcount", "3"])
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv}: exit {code}")
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_cli_runs_without_scipy(tmp_path):
    paths = []
    for name, vol_of_vol in (("lognormal", {"kind": "lognormal", "sigma": 2.0, "drift": {"kind": "zero"}}),
                             ("square_root", {"kind": "square_root", "sigma": 1.0, "drift": {"kind": "zero"}})):
        path = tmp_path / f"tanh_{name}.json"
        path.write_text(json.dumps({
            "s0": 1.0, "v0": 0.1, "rho": -0.7, "r": 0.0, "q": 0.0,
            "local_vol": {"kind": "tanh", "f0": 1.0, "f1": -0.5, "x0": 0.0},
            "vol_of_vol": vol_of_vol,
        }))
        paths.append(str(path))
    proc = subprocess.run([sys.executable, "-c", CLI_WITHOUT_SCIPY, *paths], capture_output=True, text=True,
                          timeout=300, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_traced_names_resolve_on_access():
    import scipy.optimize

    assert rate_solver.minimize is scipy.optimize.minimize
    assert rate_solver.minimize_scalar is scipy.optimize.minimize_scalar
    assert heston_rate.minimize is scipy.optimize.minimize
    for module in (rate_solver, heston_rate):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


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
