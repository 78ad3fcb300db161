import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqft.calibration import (
    DEFAULT_NOISE_CONSTANT,
    DEFAULT_PLATFORMS,
    PlatformCalibration,
    cliff_depth,
    crossover_error_rate,
    equal_budget_depth,
    error_budget,
    load_platforms,
    optimal_depth,
    platform_report,
    tvd_bound,
)
from tqft.circuits import gate_count


@pytest.mark.parametrize("eps,expected", [
    (3e-3, 11), (5e-4, 13), (3e-4, 14), (2e-3, 11),
])
def test_optimal_depth_reference(eps, expected):
    assert optimal_depth(eps) == expected


def test_optimal_depth_boundary():
    # at eps exactly 2*pi/2^10 the angle is still retained at depth 10
    edge = 2.0 * math.pi / 2**10
    assert optimal_depth(edge) == 10
    assert optimal_depth(edge * 1.0000001) == 9
    for bad in (0.0, -1e-3, 2.0 * math.pi):
        with pytest.raises(ValueError):
            optimal_depth(bad)


# Uniform draws over the whole domain, plus each edge 2*pi/2^k and its two
# neighbouring floats, where log2 of a rounded quotient is off by one.
_EDGES = st.integers(0, 1077).map(lambda k: math.ldexp(2.0 * math.pi, -k))
_ERROR_RATES = st.one_of(
    st.floats(0.0, 2.0 * math.pi, exclude_min=True, exclude_max=True),
    _EDGES, _EDGES.map(lambda e: math.nextafter(e, 0.0)),
    _EDGES.map(lambda e: math.nextafter(e, math.inf)),
).filter(lambda eps: 0.0 < eps < 2.0 * math.pi)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(_ERROR_RATES)
def test_optimal_depth_brackets_the_error_rate(eps):
    # 2*pi/2^d >= eps > 2*pi/2^(d+1), compared exactly
    d = optimal_depth(eps)
    assert Fraction(eps) * 2**d <= Fraction(2.0 * math.pi) < Fraction(eps) * 2 ** (d + 1)


def test_retained_angle_property():
    # theta_d >= eps > theta_{d+1} with theta_k = 2*pi/2^k
    for platform in DEFAULT_PLATFORMS:
        d = optimal_depth(platform.eps_2q)
        assert 2.0 * math.pi / 2**d >= platform.eps_2q
        assert platform.eps_2q > 2.0 * math.pi / 2 ** (d + 1)


def test_tvd_bound_forms():
    assert tvd_bound(5, 3, form="tight") == pytest.approx(2.0 * math.sin(math.pi / 8.0))
    assert tvd_bound(5, 3, form="loose") == pytest.approx(2.0 * math.pi / 8.0)
    for m in (4, 9, 16):
        assert tvd_bound(m, m, form="tight") == 0.0
        assert tvd_bound(m, m, form="loose") == 0.0
        for d in range(1, m + 1):
            assert tvd_bound(m, d, form="tight") <= tvd_bound(m, d, form="loose")
    with pytest.raises(ValueError):
        tvd_bound(4, 5)
    with pytest.raises(ValueError):
        tvd_bound(4, 2, form="medium")


def test_equal_budget_depth_value():
    value = equal_budget_depth(0.05, 30)
    assert value == pytest.approx(10.8803148199682, rel=1e-12)
    assert math.ceil(value) == optimal_depth(3e-3)
    with pytest.raises(ValueError):
        equal_budget_depth(0.0, 30)
    with pytest.raises(ValueError):
        equal_budget_depth(1.5, 30)


def test_cliff_depth_values():
    assert cliff_depth(8) == 5
    assert cliff_depth(16) == 6
    assert cliff_depth(20) == 7
    assert cliff_depth(30) == 7
    for m in range(2, 1000):
        assert cliff_depth(m) == math.ceil(math.log2(m)) + 2
    with pytest.raises(ValueError):
        cliff_depth(1)


def test_error_budget_noiseless_full_depth():
    # only the precision term survives: rmse = 1/(sqrt(3)*2^m)
    for m in (4, 10, 16):
        budget = error_budget(m, m, 0.0)
        assert budget.truncation_term == 0.0
        assert budget.noise_term == 0.0
        assert budget.rmse == pytest.approx(1.0 / (math.sqrt(3.0) * 2**m), rel=1e-12)


def test_error_budget_terms():
    m, d, eps, c = 16, 11, 1e-3, 0.033
    budget = error_budget(m, d, eps, c)
    tv = math.pi * (m - d) / 2**d
    assert budget.precision_term == pytest.approx(1.0 / (3.0 * 4.0**m), rel=1e-14)
    assert budget.truncation_term == pytest.approx(tv * tv / 3.0, rel=1e-14)
    assert budget.noise_term == pytest.approx((gate_count(m, d) * eps * c) ** 2, rel=1e-14)
    assert budget.rmse == pytest.approx(
        math.sqrt(budget.precision_term + budget.truncation_term + budget.noise_term))
    assert budget.noise_constant == c
    # full variant: no truncation term, full gate count
    full = error_budget(m, None, eps, c)
    assert full.truncation_term == 0.0
    assert full.noise_term == pytest.approx((120 * eps * c) ** 2, rel=1e-14)
    with pytest.raises(ValueError):
        error_budget(m, 0, eps)
    with pytest.raises(ValueError):
        error_budget(m, d, -1e-4)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            error_budget(m, d, bad)
        with pytest.raises(ValueError):
            error_budget(m, d, eps, bad)


def test_full_depth_budget_is_the_d_equals_m_budget():
    for m in range(1, 65):
        for eps in (0.0, 1e-4, 3e-3):
            for c in (0.033, 1.0):
                full, at_m = error_budget(m, None, eps, c), error_budget(m, m, eps, c)
                for a, b in zip(full, at_m):
                    assert a.hex() == b.hex(), (m, eps, c)


def test_power_of_two_terms_extend_past_float_range():
    # bit for bit the direct forms wherever those stay in float range
    for m in range(1, 511):
        assert error_budget(m, None, 0.0).precision_term == 1.0 / (3.0 * 4.0**m)
    for d in range(1, 1024):
        assert tvd_bound(1024, d, form="loose") == math.pi * (1024 - d) / 2**d
        assert tvd_bound(1024, d, form="tight") == (1024 - d) * math.sin(math.pi / 2**d)
    # beyond it they round to 0 instead of overflowing
    assert error_budget(600, 1, 1e-3).precision_term == 0.0
    assert tvd_bound(2000, 1500, form="loose") == 0.0
    assert crossover_error_rate(2000, 1500) == 0.0


def test_crossover_reference_value():
    assert crossover_error_rate(16, 11, 0.033) == pytest.approx(2.3098217628895485e-3,
                                                                rel=1e-12)
    with pytest.raises(ValueError):
        crossover_error_rate(16, 16)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            crossover_error_rate(16, 11, c=bad)


def test_crossover_is_the_rmse_equality_point():
    m, d, c = 16, 11, DEFAULT_NOISE_CONSTANT
    eps = crossover_error_rate(m, d, c)
    truncated = error_budget(m, d, eps, c).rmse
    full = error_budget(m, None, eps, c).rmse
    assert truncated == pytest.approx(full, rel=1e-12)
    # strictly ordered away from the threshold
    assert error_budget(m, d, eps * 1.05, c).rmse < error_budget(m, None, eps * 1.05, c).rmse
    assert error_budget(m, d, eps * 0.95, c).rmse > error_budget(m, None, eps * 0.95, c).rmse


def test_default_platform_registry():
    names = [p.name for p in DEFAULT_PLATFORMS]
    assert names == ["IBM Eagle r3", "IBM Heron r2", "IonQ Aria", "IQM Garnet"]
    assert [p.eps_2q for p in DEFAULT_PLATFORMS] == [3e-3, 5e-4, 3e-4, 2e-3]
    with pytest.raises(ValueError):
        PlatformCalibration("bad", 1.5)


def test_platform_report_reference_rows():
    rows = {row.name: row for row in platform_report(30, DEFAULT_PLATFORMS)}
    assert (rows["IBM Eagle r3"].depth, rows["IBM Eagle r3"].gates_truncated) == (11, 245)
    assert (rows["IBM Heron r2"].depth, rows["IBM Heron r2"].gates_truncated) == (13, 282)
    assert (rows["IonQ Aria"].depth, rows["IonQ Aria"].gates_truncated) == (14, 299)
    assert (rows["IQM Garnet"].depth, rows["IQM Garnet"].gates_truncated) == (11, 245)
    for row in rows.values():
        assert row.gates_full == 435
        assert row.reduction == pytest.approx(1.0 - row.gates_truncated / 435.0)
        assert not row.clamped


def test_platform_report_clamps_small_registers():
    rows = {row.name: row for row in platform_report(12, DEFAULT_PLATFORMS)}
    assert rows["IBM Heron r2"].clamped and rows["IBM Heron r2"].depth == 12
    assert rows["IonQ Aria"].clamped and rows["IonQ Aria"].depth == 12
    assert not rows["IBM Eagle r3"].clamped
    assert rows["IBM Heron r2"].reduction == 0.0
    with pytest.raises(ValueError):
        platform_report(1, DEFAULT_PLATFORMS)


def test_load_platforms_roundtrip(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text("name,eps_2q\nTestbed A,1e-3\nTestbed B,2.5e-4\n")
    platforms = load_platforms(path)
    assert [p.name for p in platforms] == ["Testbed A", "Testbed B"]
    assert platforms[1].eps_2q == 2.5e-4
    report = platform_report(20, platforms)
    assert [row.depth for row in report] == [optimal_depth(1e-3), optimal_depth(2.5e-4)]

    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("device,error\nX,1e-3\n")
    with pytest.raises(ValueError):
        load_platforms(bad_header)
    empty = tmp_path / "empty.csv"
    empty.write_text("name,eps_2q\n")
    with pytest.raises(ValueError):
        load_platforms(empty)


@pytest.mark.parametrize("body", ["foo\n", "foo,1e-3,extra\n"], ids=["missing", "extra"])
def test_load_platforms_rejects_malformed_rows(tmp_path, body):
    path = tmp_path / "registry.csv"
    path.write_text("name,eps_2q\nTestbed A,1e-3\n" + body)
    with pytest.raises(ValueError, match="line 3"):
        load_platforms(path)
