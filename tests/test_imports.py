"""Every name a tqft module imports is used in that module.

The one exception is a name the benchmark's tracer wraps in the importing
module's namespace (the patch table of perfbench/tracing.py): such an
import is the layer boundary the tracer times, even when no call in the
module goes through it any more.

`tqft/__init__.py` is checked too, so it cannot re-export a name: each
name has one import path, its module.
"""

import ast
import importlib
import importlib.util
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
MODULES = sorted((ROOT / "src" / "tqft").glob("*.py"))


def _traced_imports() -> set[tuple[str, str]]:
    """(module, name) for every module-level name the tracer patches."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mods = SimpleNamespace(**{layer: importlib.import_module(f"tqft.{layer}")
                              for layer in tracing.LAYERS})
    return {(owner.__name__.rsplit(".", 1)[-1], attr)
            for owner, attr, *_ in tracing.layer_patches(mods)
            if isinstance(owner, ModuleType)}


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used_or_traced(path):
    traced = _traced_imports()
    unused = [name for name in _unused_imports(path) if (path.stem, name) not in traced]
    assert not unused, f"{path.name} imports names it never uses: {unused}"
