"""The validated value types are checked on every way to build one.

TfimSpec, PlatformCalibration, CircuitPlan and PhaseDistribution are
NamedTuple subclasses whose `__new__` checks the fields, and whose `_make`
calls the class, so `_replace` checks too: a NamedTuple's own `_make`,
which `_replace` calls, builds the tuple without `__new__` and would hand
out, for example, a 100-site chain. Copy and pickle rebuild an instance
through `__new__`.

`src/` has one idiom for value types, `typing.NamedTuple`; no module
imports `dataclasses`.
"""

import ast
import copy
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from tqft.calibration import PlatformCalibration
from tqft.circuits import CircuitPlan
from tqft.qpe import PhaseDistribution
from tqft.tfim import TfimSpec

SRC = Path(__file__).resolve().parent.parent / "src" / "tqft"
MODULES = sorted(SRC.glob("*.py"))

# (type, valid fields, field to break, an out-of-range value, the check's message)
CASES = [
    (TfimSpec, (4, 1.0, 0.5), "n", 100, "the chain is capped at 16 sites"),
    (PlatformCalibration, ("IBM Heron r2", 5e-4), "eps_2q", 1.5,
     "two-qubit error rate must lie in (0, 1), got 1.5"),
    (CircuitPlan, (5, 3), "d", 6, "truncation depth d must lie in 1..5, got 6"),
    (PhaseDistribution, (2, [0.25, 0.25, 0.25, 0.25]), "probs", [0.5, 0.5, 0.5, 0.5],
     "probabilities sum to 2.0, not 1"),
]
IDS = [case[0].__name__ for case in CASES]


def pickled(value):
    return pickle.loads(pickle.dumps(value))


# Paths that rebuild an existing instance.
REBUILDS = [copy.copy, copy.deepcopy, pickled]


def _same(a, b) -> bool:
    return type(a) is type(b) and all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def _bad_fields(cls, fields, name, value):
    return tuple(value if f == name else v for f, v in zip(cls._fields, fields))


@pytest.mark.parametrize("cls, fields, name, value, message", CASES, ids=IDS)
def test_direct_call_replace_and_make_check(cls, fields, name, value, message):
    valid = cls(*fields)
    bad = _bad_fields(cls, fields, name, value)
    assert _same(cls._make(fields), valid)
    assert _same(valid._replace(**{name: getattr(valid, name)}), valid)
    for build in (lambda: cls(*bad), lambda: cls._make(bad),
                  lambda: valid._replace(**{name: value})):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


@pytest.mark.parametrize("rebuild", REBUILDS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("cls, fields, name, value, message", CASES, ids=IDS)
def test_copy_and_pickle_check(cls, fields, name, value, message, rebuild):
    valid = cls(*fields)
    assert _same(rebuild(valid), valid)
    unchecked = tuple.__new__(cls, _bad_fields(cls, fields, name, value))
    with pytest.raises(ValueError, match=re.escape(message)):
        rebuild(unchecked)


@pytest.mark.parametrize("cls, fields, name, value, message", CASES, ids=IDS)
def test_fields_are_read_only(cls, fields, name, value, message):
    valid = cls(*fields)
    with pytest.raises(AttributeError):
        setattr(valid, name, getattr(valid, name))
    with pytest.raises(AttributeError):
        valid.extra = 1  # no instance dict


def test_every_path_normalises():
    # check_int hands back a Python int, and the probabilities become a
    # read-only float64 copy, whichever path built the instance.
    raw = (np.int64(4), 1.0, 0.5)
    unchecked = tuple.__new__(TfimSpec, raw)
    for spec in (TfimSpec(*raw), TfimSpec._make(raw), TfimSpec(4)._replace(n=np.int64(4)),
                 *(rebuild(unchecked) for rebuild in REBUILDS)):
        assert type(spec.n) is int
    probs = np.array([1, 0], dtype=np.int64)
    unchecked = tuple.__new__(PhaseDistribution, (1, probs))
    for dist in (PhaseDistribution(1, probs), PhaseDistribution._make((1, probs)),
                 PhaseDistribution(1, [0.5, 0.5])._replace(probs=probs),
                 *(rebuild(unchecked) for rebuild in REBUILDS)):
        assert dist.probs.dtype == np.float64 and not dist.probs.flags.writeable
        assert dist.probs is not probs


def test_phase_distribution_leaves_the_callers_array_writable():
    # float64 and contiguous: the input a no-copy conversion would hand back as is.
    probs = np.full(4, 0.25)
    unchecked = tuple.__new__(PhaseDistribution, (2, probs))
    for dist in (PhaseDistribution(2, probs), PhaseDistribution._make((2, probs)),
                 PhaseDistribution(2, [1.0, 0.0, 0.0, 0.0])._replace(probs=probs),
                 *(rebuild(unchecked) for rebuild in REBUILDS)):
        assert dist.probs is not probs and not np.shares_memory(dist.probs, probs)
        probs[0] = 1.0  # the caller's array stays writable ...
        assert dist.probs[0] == 0.25  # ... and writing it leaves the distribution alone
        probs[0] = 0.25


def test_fields_defaults_and_repr():
    assert [case[0]._fields for case in CASES] == [
        ("n", "j", "h"), ("name", "eps_2q"), ("m", "d"), ("m", "probs")]
    assert TfimSpec(4) == (4, 1.0, 0.5)
    assert repr(TfimSpec(4)) == "TfimSpec(n=4, j=1.0, h=0.5)"


def _dataclasses_imports(path: Path) -> list[int]:
    """Line numbers of every import of `dataclasses` in the module at `path`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [node.lineno for alias in node.names
                      if alias.name.split(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
            found.append(node.lineno)
    return found


def test_modules_are_found():
    assert {p.stem for p in MODULES} >= {"calibration", "circuits", "qpe", "tfim"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_dataclasses(path):
    found = _dataclasses_imports(path)
    assert not found, f"{path.name} imports dataclasses at lines {found}; use typing.NamedTuple"


def test_the_guard_sees_both_import_forms(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import dataclasses\nfrom dataclasses import dataclass\nimport typing\n")
    assert _dataclasses_imports(module) == [1, 2]
