"""Only tqft.circuits decides whether a value is an integer.

`circuits.check_int` is the one integer check of the package: every size,
depth, count and index goes through it. Any other module that tests
`isinstance(..., bool)` or `isinstance(..., int)`, or names `np.integer`,
has grown a second integer rule, which can disagree with the first (one
such rule once accepted `True` as 1 while another refused it).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tqft"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "circuits.py")

# (module, function) pairs whose bool test is not an integer check:
# cli._cell spells a bool cell `true`/`false` in a CSV artifact.
NOT_INTEGER_CHECKS = {("cli", "_cell")}


def _type_names(node: ast.expr) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _integer_tests(path: Path) -> list[str]:
    """`function:line` of every integer test in the module at `path`."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        exempt = (path.stem, function) in NOT_INTEGER_CHECKS
        if isinstance(node, ast.Attribute) and node.attr == "integer":
            found.append(f"{function}:{node.lineno}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2
              and _type_names(node.args[1]) & {"bool", "int"} and not exempt):
            found.append(f"{function}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_modules_are_found():
    assert {p.stem for p in MODULES} >= {"calibration", "cli", "qpe", "tfim"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_circuits_checks_integers(path):
    found = _integer_tests(path)
    assert not found, f"{path.name} tests for integers at {found}; call circuits.check_int"


def test_the_guard_sees_circuits_own_check():
    assert _integer_tests(SRC / "circuits.py")
