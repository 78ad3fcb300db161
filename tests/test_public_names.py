"""Every function, class, method and module-level constant in `src/` has
a caller outside the unit tests.

A definition in a module of the package is kept only while something uses
it: a module of the package, the acceptance gate, or the benchmark. A
definition that only unit tests call is dead code; it costs lines of
`src/`, and is deleted rather than kept for its tests (as `parse_plan`
was). A reference a test needs is built in the test from the modules.

The package has one import path per name, its module: `tqft/__init__.py`
holds only `__version__`, and re-exports nothing (tests/test_imports.py
fails on an unused import there). The public names of the package are so
the module-level names of its modules that do not start with `_`; they
are held to the caller rule on their own, as `tqft.__all__` once was.

A use is a `Name` or `Attribute` that reads the name. A definition, an
import or a store does not count. In `perfbench/` a string constant counts
too, so the `(owner, "attr")` patch table of its tracer holds its names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tqft"
CALLERS = [*sorted(SRC.glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
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


def _definitions(path: Path) -> list[str]:
    """The module-level functions, classes and non-dunder assigned names of
    `path`, and the non-dunder methods of its classes as `Class.method`."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                      and not name.id.startswith("__")]
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
    uncalled = [name for name in _uncalled_definitions()
                if not name.split(".", 1)[1].startswith("_") and name.count(".") == 1]
    assert not uncalled, (f"public names {uncalled} have no caller in a tqft module, "
                          "tests/test_acceptance.py or perfbench; delete them")


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


def test_the_guard_lists_module_level_names(tmp_path):
    module = tmp_path / "module.py"
    module.write_text('__version__ = "1"\nLIMIT = 3\n_SCALE: float = 2.0\n'
                      "main = print\nLOW, HIGH = 1, 2\nTABLE = {}\nTABLE[0] = 1\n"
                      "class Box:\n    SIZE = 1\n"
                      "def solve():\n    local = 1\n")
    assert _definitions(module) == ["LIMIT", "_SCALE", "main", "LOW", "HIGH", "TABLE", "Box",
                                    "solve"]


def test_the_guard_ignores_definitions_and_imports(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from tqft import spectrum\n"
                      "def solve():\n    pass\n"
                      "LIMIT = 3\n"
                      "print(tqft.gate_count, 'max_tvd')\n")
    assert _uses(module) >= {"tqft", "gate_count"}
    assert not _uses(module) & {"spectrum", "solve", "LIMIT", "max_tvd"}
    assert "max_tvd" in _uses(module, strings=True)
