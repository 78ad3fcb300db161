"""The benchmark's tracer wraps tqft names by attribute; keep them resolvable."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_trace_patches_resolve_and_gate_kinds_are_priced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mods = SimpleNamespace(**{layer: importlib.import_module(f"tqft.{layer}")
                              for layer in tracing.LAYERS})
    for owner, attr, layer, _kind, _count in tracing.layer_patches(mods):
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is gone"
        assert layer in tracing.LAYERS
    for m in range(1, 9):
        for d in range(1, m + 1):
            kinds = {g.kind for g in mods.circuits.plan_truncated_qft(m, d).gates}
            assert kinds <= tracing._GATE_BYTES_PER_AMP.keys(), (m, d, kinds)
