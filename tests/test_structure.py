"""Structural ratchets on the package source.

Each spec class owns its formulas, so callers dispatch on the class rather
than test its type.  The number of ``isinstance`` calls may only fall, and
every spec class exposes the same methods as the others of its kind, so a
new spec cannot quietly need a type ladder in a caller.  Every scalar root
goes through the one safeguarded solver in ``_roots``, so no module brings
in another.
"""

import ast
import inspect
import typing
from pathlib import Path

import pytest

from lsv_shortmat import model

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
