"""`tqft suite` writes exactly the checked-in artifacts in tests/golden/suite.

A change that moves suite bytes on purpose regenerates the golden files
from the repository root with

    PYTHONPATH=src python -m tqft suite --out-dir tests/golden/suite

and lists the per-column deltas in CHANGES.md. No tolerance absorbs a
difference: a mismatch names the file, line, column, both values and,
for two floats, their distance in units in the last place.
"""

import struct
from pathlib import Path

import pytest

from tqft import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "suite"
NAMES = [name for name, _ in cli.SUITE]


def _ordered(x: float) -> int:
    """The bits of a double as an integer that orders like the double."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def ulp_distance(a: float, b: float) -> int:
    return abs(_ordered(a) - _ordered(b))


def _float(cell: str) -> float | None:
    """The cell as a float, unless it is an integer or not a number."""
    if cell.lstrip("-").isdigit():
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def first_difference(name: str, expected: str, actual: str) -> str:
    """Where two artifact texts first differ, in words."""
    sep = " " if name.endswith(".txt") else ","
    want, got = expected.splitlines(), actual.splitlines()
    header = next((line.split(sep) for line in want if not line.startswith("#")), [])
    for row, (a, b) in enumerate(zip(want, got), 1):
        if a == b:
            continue
        cells_a, cells_b = a.split(sep), b.split(sep)
        if len(cells_a) != len(cells_b):
            return f"{name} line {row}: {len(cells_b)} cells, golden has {len(cells_a)}"
        col = next(i for i, (x, y) in enumerate(zip(cells_a, cells_b)) if x != y)
        label = header[col] if sep == "," and not a.startswith("#") else col + 1
        x, y = cells_a[col], cells_b[col]
        message = f"{name} line {row}, column {label}: golden {x}, got {y}"
        fx, fy = _float(x), _float(y)
        if fx is None or fy is None:
            return message
        return message + f" ({ulp_distance(fx, fy)} ulp apart)"
    return f"{name}: {len(got)} lines, golden has {len(want)}"


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("suite")
    assert cli.main(["suite", "--out-dir", str(out_dir)]) == 0
    return out_dir


def test_golden_set_is_the_suite():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_suite_artifact_matches_golden(name, suite_dir):
    expected = (GOLDEN / name).read_bytes()
    actual = (suite_dir / name).read_bytes()
    if actual != expected:
        pytest.fail(first_difference(name, expected.decode(), actual.decode()))


def test_mismatch_report_locates_the_cell():
    golden = "# tqft 0.1.0\nm,d,phi\n4,1,0.25\n"
    changed = "# tqft 0.1.0\nm,d,phi\n4,1,0.25000000000000006\n"
    assert first_difference("x.csv", golden, changed) == (
        "x.csv line 3, column phi: golden 0.25, got 0.25000000000000006 (1 ulp apart)")
    assert first_difference("x.csv", golden, golden + "5,2,1\n") == (
        "x.csv: 4 lines, golden has 3")
    assert first_difference("p.txt", "m=4 d=2\nH 0\n", "m=4 d=2\nH 1\n") == (
        "p.txt line 2, column 2: golden 0, got 1")
    assert ulp_distance(-0.0, 0.0) == 0
    assert ulp_distance(-5e-324, 5e-324) == 2
