"""Every public name of tqft, and every function, class and method in
`src/`, has a caller outside the unit tests.

A name in `tqft.__all__`, or a definition in a module of the package, is
kept only while something uses it: a module of the package, the
acceptance gate, or the benchmark. A name that only unit tests call is
dead code; it costs a line of `__all__` or of `src/`, and is deleted
rather than kept for its tests (as `parse_plan` was). A reference a test
needs is built in the test from the public API.

A use is a `Name` or `Attribute` that reads the name. A definition, an
import or a store does not count. In `perfbench/` a string constant counts
too, so the `(owner, "attr")` patch table of its tracer holds its names.
"""

import ast
from pathlib import Path

import tqft

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tqft"
CALLERS = [*sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
           ROOT / "tests" / "test_acceptance.py"]
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _uses(path: Path, strings: bool = False) -> set[str]:
    """Names that the code at `path` reads, and its string constants if `strings`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _uncalled() -> list[str]:
    used = set().union(*map(_uses, CALLERS),
                       *(_uses(p, strings=True) for p in PERFBENCH))
    return [name for name in tqft.__all__ if name != "__version__" and name not in used]


def _definitions(path: Path) -> list[str]:
    """The module-level functions and classes of `path`, and the non-dunder
    methods of its classes as `Class.method`."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")]
    return found


def _uncalled_definitions() -> list[str]:
    used = set().union(*map(_uses, CALLERS),
                       *(_uses(p, strings=True) for p in PERFBENCH))
    return [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
            for name in _definitions(path) if name.rsplit(".", 1)[-1] not in used]


def test_callers_are_found():
    assert {p.stem for p in CALLERS} >= {"cli", "qpe", "tfim", "test_acceptance"}
    assert {p.stem for p in PERFBENCH} >= {"run", "tracing", "workloads"}


def test_every_public_name_has_a_caller():
    uncalled = _uncalled()
    assert not uncalled, (f"tqft.__all__ names {uncalled}, which no tqft module, "
                          "tests/test_acceptance.py or perfbench uses; delete them")


def test_every_definition_in_src_has_a_caller():
    uncalled = _uncalled_definitions()
    assert not uncalled, (f"src/ defines {uncalled}, which no tqft module, "
                          "tests/test_acceptance.py or perfbench uses; delete them")


def test_the_guard_lists_functions_classes_and_methods(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("def solve():\n    def inner():\n        pass\n"
                      "class Box:\n    def __init__(self):\n        pass\n"
                      "    def open(self):\n        pass\n"
                      "    class Lid:\n        pass\n")
    assert _definitions(module) == ["solve", "Box", "Box.open"]


def test_the_guard_ignores_definitions_and_imports(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from tqft import spectrum\n"
                      "def solve():\n    pass\n"
                      "LIMIT = 3\n"
                      "print(tqft.gate_count, 'max_tvd')\n")
    assert _uses(module) >= {"tqft", "gate_count"}
    assert not _uses(module) & {"spectrum", "solve", "LIMIT", "max_tvd"}
    assert "max_tvd" in _uses(module, strings=True)
