"""Structural ratchets on the package source.

Each spec class owns its formulas, so callers dispatch on the class rather
than test its type.  No module calls ``isinstance`` or compares anything
with a spec class (``is``, ``is not``, ``==``, ``!=``): the one value that
tells the vol-of-vol families apart is read off the spec
(``model.elasticity``).  The smile expansions read the vol of vol only through ``sigma_at`` and
``variance_leg``, never its ``sigma`` field, and every spec class exposes
the same methods as the others of its kind, so a new spec cannot quietly
need a type ladder in a caller.  The local-vol
interface is held at four methods: the array ``eta``, the scalar
``eta_derivatives`` (whose value at the money also gives the Taylor
coefficients and decides whether eta is constant), the spot integral and
the proxy bounds.  A spec without a finite answer still carries the method
and raises ValueError from it.  A fifth method must be added here
deliberately.  Every scalar root goes through the one safeguarded solver in
``_roots``, so no module brings in another, and the Hartman-Watson F calls
it once for both branches.
Monte Carlo pricing reads everything it needs from the samples, tells the
products apart in one place and leaves output formats to the CLI.  A model
file is read and written through one ``{kind: class}`` table per spec
kind, never by per-class JSON code.  The package reads no
environment variables, and the Monte Carlo engine works out its own worker
count, so no caller passes one.  numpy is the one runtime dependency, and
only the Monte Carlo engine imports it at module level: the package, its
model files and the analytic commands load neither numpy nor the thread
pool, and the package still exports every name it did but the retired
eta^2 inverse and cumulant oracles.  No module imports ``dataclasses``, the
CLI writes its CSV without ``csv``, and an analytic command loads the
transform module of its own vol-of-vol family alone.  No module imports
scipy, so no CLI run loads it.  The names of retired layers that the benchmark tracer still
rebinds resolve to None on their modules, and only while the tracer reads
them.
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

import lsv_shortmat
from lsv_shortmat import hartman_watson, heston_rate, mc_engine, model, rate_solver

PACKAGE = Path(model.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# the family is read by value (model.elasticity), so no site remains
MAX_ISINSTANCE = 0

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


def _class_comparisons(tree) -> list[int]:
    """Lines of ``tree`` that compare a spec class by name with is, is not, == or !=."""
    spec_classes = {cls.__name__ for union in SPEC_KINDS.values() for cls in typing.get_args(union)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
                   and any(isinstance(side, ast.Name) and side.id in spec_classes for side in pair)
                   for op, pair in zip(node.ops, zip(operands, operands[1:]))):
                lines.append(node.lineno)
    return lines


def test_no_comparison_with_a_spec_class():
    sites = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _class_comparisons(ast.parse(path.read_text(encoding="utf-8")))]
    assert not sites, sites


@pytest.mark.parametrize("source", ["family is LognormalVolOfVol", "type(v) is not SquareRootVolOfVol",
                                    "type(v) == TanhLocalVol", "ZeroDrift != type(d)",
                                    "0 < x is LognormalVolOfVol"])
def test_class_comparison_guard_sees_every_form(source):
    # the guard above flags each of these, so its passing run means none is in src/
    assert _class_comparisons(ast.parse(source)) == [1]


def test_smile_reads_the_vol_of_vol_through_the_spec():
    # the expansions reach the vol of vol only through sigma_at and
    # variance_leg, so a per-family transcription in sigma cannot creep back
    tree = ast.parse((PACKAGE / "smile.py").read_text(encoding="utf-8"))
    reads = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "sigma"]
    assert not reads, reads


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
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                foreign += [f"{path.name}:{node.lineno}:{n}" for n in sorted(names & FOREIGN_ROOT_FINDERS)]
            elif isinstance(node, ast.Attribute) and node.attr in FOREIGN_ROOT_FINDERS:
                foreign.append(f"{path.name}:{node.lineno}:{node.attr}")
            elif isinstance(node, ast.FunctionDef) and node.name == "newton_bracketed":
                definitions.append(path.name)
            if any(m.split(".")[0] == "scipy" for m in _imported_modules(node)):
                scipy_imports.append(f"{path.name}:{node.lineno}")
    assert not foreign, foreign
    assert not scipy_imports, scipy_imports
    assert definitions == ["_roots.py"]


def test_one_f_solve():
    # both branches of the Hartman-Watson F are one stationary equation
    tree = ast.parse(Path(hartman_watson.__file__).read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "newton_bracketed"]
    assert len(calls) == 1, calls


def test_rate_I_reads_hw_F_through_the_module(monkeypatch):
    # the benchmark tracer counts F evaluations by rebinding this name
    before = hartman_watson.rate_I(1.2, 0.9)
    monkeypatch.setattr(hartman_watson, "hw_F", lambda rho: 0.0)
    assert hartman_watson.rate_I(1.2, 0.9) != before


def _module_level_imports(tree):
    """The import statements that run when the module is imported: those
    outside every function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def test_only_the_mc_engine_imports_numpy_on_import():
    importers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if any(m.split(".")[0] == "numpy"
               for node in _module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
               for m in _imported_modules(node))
    ]
    assert importers == ["mc_engine.py"]


# every name the package exported when it imported mc_engine eagerly, less
# the eta^2 inverse, the cumulant oracles, the eta_eval relay and
# vol_integral_Q, which no command reached
PACKAGE_EXPORTS = [
    "ConstantDrift", "ConstantLocalVol", "FBranchSolution", "LognormalVolOfVol",
    "LsvModel", "McConfig", "McSamples", "MeanRevertingDrift", "OptionQuote", "PriceEstimate",
    "RatePoint", "SmileExpansion", "SmilePoint", "SquareRootVolOfVol", "TanhLocalVol",
    "TaylorLocalVol", "VixMapping", "ZeroDrift", "atm_price_limit_european", "atm_price_limit_vix",
    "black_price", "black_vega", "check_moment_condition", "constant_drift_factor",
    "default_strike_grid", "eta_log_coeffs",
    "european_expansion_heston_type", "european_expansion_sabr_type", "european_rate", "h_heston",
    "h_lognormal", "heston_vix_smile", "hw_F", "hw_F_series", "implied_vol", "integral_IS",
    "legendre_point", "load_model", "marginal_J1", "marginal_J2", "meanrev_lognormal_vix_smile",
    "model_from_dict", "model_to_dict", "price", "proxy_error_bounds", "rate_I", "rate_IH_numeric",
    "rate_IH_series", "rate_to_impvol", "sabr_rate_closed", "simulate_paths", "smile_from_mc",
    "solve_f_branch", "stochvol_vix_rate", "terminal_values", "vix_atm_bounds", "vix_exact_meanrev",
    "vix_expansion_heston_type", "vix_expansion_sabr_type", "vix_mapping", "vix_rate", "vix_spot",
]


def test_package_keeps_its_exports():
    namespace = {}
    exec(f"from lsv_shortmat import {', '.join(PACKAGE_EXPORTS)}", namespace)
    assert all(namespace[name] is getattr(lsv_shortmat, name) for name in PACKAGE_EXPORTS)
    assert not set(PACKAGE_EXPORTS) - set(dir(lsv_shortmat))


def test_package_exports_exactly_these_names():
    lazy = {name for names in lsv_shortmat._LAZY_EXPORTS.values() for name in names}
    assert lazy == set(PACKAGE_EXPORTS)
    for name in ("eta_eval", "vol_integral_Q"):
        with pytest.raises(AttributeError):
            getattr(lsv_shortmat, name)


def test_mc_exports_resolve_to_the_engine():
    assert lsv_shortmat.mc_engine is mc_engine
    for name in mc_engine.__all__:
        assert getattr(lsv_shortmat, name) is getattr(mc_engine, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        lsv_shortmat.no_such_name


def _fresh_interpreter(code: str, *args: str, cwd) -> str:
    """The last stdout line of ``code`` run in a new interpreter that
    imports the package from this source tree."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=300, cwd=cwd, env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_bare_import_leaves_numpy_out(tmp_path):
    code = "import sys, lsv_shortmat; print(sorted({'numpy', 'concurrent.futures'} & set(sys.modules)))"
    assert _fresh_interpreter(code, cwd=tmp_path) == "[]"


TANH_LOCAL_VOL = {"kind": "tanh", "f0": 1.0, "f1": -0.5, "x0": 0.0}
MODELS = {
    "tanh_lognormal": (TANH_LOCAL_VOL, {"kind": "lognormal", "sigma": 2.0, "drift": {"kind": "zero"}}),
    "tanh_square_root": (TANH_LOCAL_VOL, {"kind": "square_root", "sigma": 1.0, "drift": {"kind": "zero"}}),
    "constant_lognormal": ({"kind": "constant"}, {"kind": "lognormal", "sigma": 2.0, "drift": {"kind": "zero"}}),
}


def _model_files(tmp_path, *names) -> list[str]:
    paths = []
    for name in names:
        local_vol, vol_of_vol = MODELS[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"s0": 1.0, "v0": 0.1, "rho": -0.7, "r": 0.0, "q": 0.0,
                                    "local_vol": local_vol, "vol_of_vol": vol_of_vol}))
        paths.append(str(path))
    return paths


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
    paths = _model_files(tmp_path, "tanh_lognormal", "tanh_square_root")
    assert json.loads(_fresh_interpreter(CLI_WITHOUT_SCIPY, *paths, cwd=tmp_path)) == []


# in one fresh interpreter: table1, then smile per product and rate on each
# model, then one mc run; prints the heavy modules loaded after the analytic
# commands and after the mc run
ANALYTIC_CLI_IMPORTS = """
import contextlib, io, json, sys
import lsv_shortmat.cli as cli

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv}: exit {code}")

def loaded():
    return [name for name in ("numpy", "concurrent.futures") if name in sys.modules]

models = sys.argv[1:]
run(["table1"])
for path in models:
    for product in ("european", "vix"):
        run(["smile", "--model", path, "--product", product, "--kcount", "3"])
    run(["rate", "--model", path, "--kcount", "3"])
analytic = loaded()
run(["mc", "--model", models[0], "--paths", "4096", "--steps", "10", "--kcount", "3"])
print(json.dumps([analytic, loaded()]))
"""


def test_analytic_commands_load_no_numpy(tmp_path):
    paths = _model_files(tmp_path, "tanh_lognormal", "tanh_square_root", "constant_lognormal")
    analytic, after_mc = json.loads(_fresh_interpreter(ANALYTIC_CLI_IMPORTS, *paths, cwd=tmp_path))
    assert analytic == []
    assert after_mc == ["numpy", "concurrent.futures"]


# in one fresh interpreter: the CLI imported and every model file given
# read, then smile and rate for both products on each; prints the watched
# modules loaded after the reads and after the commands
CLI_FAMILY_IMPORTS = """
import contextlib, io, json, sys
import lsv_shortmat.cli as cli
from lsv_shortmat.model import load_model

WATCHED = ("dataclasses", "inspect", "csv", "lsv_shortmat.black_scholes",
           "lsv_shortmat.hartman_watson", "lsv_shortmat.heston_rate")

def loaded():
    return [name for name in WATCHED if name in sys.modules]

models = sys.argv[1:]
for path in models:
    load_model(path)
after_read = loaded()
for path in models:
    for command in ("smile", "rate"):
        for product in ("european", "vix"):
            argv = [command, "--model", path, "--product", product, "--kcount", "3"]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                if cli.main(argv) != 0:
                    raise SystemExit(f"{argv} failed")
print(json.dumps([after_read, loaded()]))
"""


def test_cli_import_and_model_reads_load_no_optional_module(tmp_path):
    paths = _model_files(tmp_path, "tanh_lognormal", "tanh_square_root")
    after_read, _ = json.loads(_fresh_interpreter(CLI_FAMILY_IMPORTS, *paths, cwd=tmp_path))
    assert after_read == []


@pytest.mark.parametrize("name, family_module", [("tanh_lognormal", "lsv_shortmat.hartman_watson"),
                                                 ("tanh_square_root", "lsv_shortmat.heston_rate")])
def test_analytic_commands_load_only_their_family_module(name, family_module, tmp_path):
    # a lognormal model never loads the square-root transform, nor the reverse
    _, after_commands = json.loads(_fresh_interpreter(CLI_FAMILY_IMPORTS, *_model_files(tmp_path, name),
                                                      cwd=tmp_path))
    assert after_commands == [family_module]


def test_no_module_imports_dataclasses():
    # the records derive from _record.Record, whose definitions cost no
    # dataclasses import (with inspect) at start-up
    importers = [f"{path.name}:{node.lineno}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if any(m.split(".")[0] == "dataclasses" for m in _imported_modules(node))]
    assert not importers, importers


TRACED_RETIRED = {
    rate_solver: ("eta_sq_inverse", "h_heston", "h_lognormal", "minimize", "minimize_scalar"),
    heston_rate: ("cumulant", "minimize"),
}


def test_traced_names_resolve_on_access():
    for module, names in TRACED_RETIRED.items():
        assert module._TRACED_RETIRED == names
        for name in names:
            assert getattr(module, name) is None, (module.__name__, name)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


def _traced_attributes() -> set[tuple[str, str]]:
    """(module, attribute) of every binding the benchmark tracer's
    ``instrument`` plan reads, from its source."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    instrument = next(fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "instrument")
    return {(node.elts[0].id, node.elts[1].value) for node in ast.walk(instrument)
            if isinstance(node, ast.Tuple) and len(node.elts) == 3 and isinstance(node.elts[0], ast.Name)
            and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)}


def test_retired_names_stay_only_while_traced():
    # a name the tracer no longer reads must leave its module's hook tuple
    traced = _traced_attributes()
    assert ("cli", "european_rate") in traced
    stale = [(module.__name__, name) for module, names in TRACED_RETIRED.items() for name in names
             if (module.__name__.rsplit(".", 1)[-1], name) not in traced]
    assert not stale, stale


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


LOCAL_VOL_METHODS = {"eta", "eta_derivatives", "inv_eta_integral", "proxy_bounds"}


def test_local_vol_interface():
    methods = {cls.__name__: _public_methods(cls) for cls in typing.get_args(model.LocalVolSpec)}
    assert all(m == LOCAL_VOL_METHODS for m in methods.values()), methods


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
