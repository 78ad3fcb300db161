import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqft import qpe
from tqft.calibration import tvd_bound
from tqft.circuits import plan_truncated_qft, plan_unitary
from tqft.numerics import SplitMix64, circular_distance
from tqft.qpe import (
    DIST_MAX_QUBITS,
    SCAN_MAX_QUBITS,
    SUCCESS_FLOOR,
    PhaseDistribution,
    _statevector_distributions,
    closed_form_full_distribution,
    default_phase_sample,
    grid_phases,
    max_tvd,
    max_tvd_scan,
    mean_success_probability,
    phase_distribution,
    phase_distributions,
    random_phases,
    sample_outcomes,
    success_probability,
)


def test_on_grid_phase_is_recovered_exactly():
    for m in (2, 4, 7):
        n = 1 << m
        for y in (0, 1, n // 2, n - 1):
            dist = phase_distribution(y / n, m, m)
            assert dist.probs[y] == pytest.approx(1.0, abs=1e-12)


def test_distribution_matches_closed_form_kernel():
    rng = SplitMix64(606)
    for _ in range(30):
        m = 2 + rng.next_u64() % 11  # 2..12
        phi = rng.random()
        circuit = phase_distribution(phi, int(m), int(m))
        kernel = closed_form_full_distribution(phi, int(m))
        assert np.max(np.abs(circuit.probs - kernel.probs)) < 1e-10


def test_closed_form_kernel_normalization_and_peak():
    for phi in (0.0, 0.123, 0.5, 0.999):
        dist = closed_form_full_distribution(phi, 6)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        peak = int(np.argmax(dist.probs))
        assert circular_distance(peak / 64.0, phi) <= 1.0 / 64.0


def test_phase_wraps_modulo_one():
    # dyadic phase: the mod-1 reduction is exact in binary
    a = phase_distribution(1.25, 4, 3)
    b = phase_distribution(0.25, 4, 3)
    assert np.array_equal(a.probs, b.probs)
    # non-dyadic phases agree to rounding noise only
    c = phase_distribution(-0.7, 4, 3)
    assert np.max(np.abs(c.probs - phase_distribution(0.3, 4, 3).probs)) < 1e-12


def test_phase_distribution_validation():
    dist = phase_distribution(0.2, 3, 2)
    assert dist.dim == 8
    assert dist.outcomes()[3] == 3.0 / 8.0
    with pytest.raises(ValueError):
        PhaseDistribution(2, np.array([0.5, 0.5]))  # wrong length
    with pytest.raises(ValueError):
        PhaseDistribution(1, np.array([0.9, 0.3]))  # not normalized
    for probs in ([math.nan, 1.0], [0.0, math.nan], [math.nan, math.nan]):
        with pytest.raises(ValueError):
            PhaseDistribution(1, np.array(probs))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_phase_is_a_bad_argument(bad):
    with pytest.raises(ValueError):
        phase_distributions(np.array([0.1, bad]), 4, 4)
    with pytest.raises(ValueError):
        phase_distribution(bad, 4, 4)
    with pytest.raises(ValueError):
        success_probability(bad, 4, 4)
    with pytest.raises(ValueError):
        mean_success_probability([0.1, bad], 4, 4, 10, SplitMix64(1))
    with pytest.raises(ValueError):
        max_tvd(4, 2, [0.1, bad])
    with pytest.raises(ValueError):
        closed_form_full_distribution(bad, 4)


def test_empty_phase_sample_is_a_bad_argument():
    empty = default_phase_sample(3, 0, 0)
    assert empty.shape == (0,)
    with pytest.raises(ValueError):
        phase_distributions(empty, 4, 2)
    with pytest.raises(ValueError):
        mean_success_probability(empty, 4, 2)


def test_sampled_row_failing_its_check_is_a_numerical_failure(monkeypatch):
    exact = qpe.phase_distributions
    monkeypatch.setattr(qpe, "phase_distributions",
                        lambda phis, m, d: np.full_like(exact(phis, m, d), math.nan))
    with pytest.raises(ArithmeticError):
        mean_success_probability([0.3], 4, 4, 10, SplitMix64(1))


def test_batch_distributions_match_single():
    phis = np.array([0.01, 0.25, 0.619, 0.99])
    batch = phase_distributions(phis, 6, 4)
    for i, phi in enumerate(phis):
        single = phase_distribution(float(phi), 6, 4)
        assert np.max(np.abs(batch[i] - single.probs)) < 1e-13


def _assert_matches_statevector(phis, m, d):
    probs = phase_distributions(phis, m, d)
    assert np.max(np.abs(probs - _statevector_distributions(phis, m, d))) < 1e-12, (m, d)
    assert probs.min() >= 0.0 and probs.max() <= 1.0, (m, d)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12, (m, d)


def test_product_formula_matches_statevector_every_depth():
    phis = np.concatenate([
        random_phases(40, 5),
        [0.0, 0.5, 0.25, 0.75, 3.0 / 8.0, 1.0 / 256.0, 1.0 - 2.0**-40],
        [-0.3, -0.25, -1e-9, -2.0**-40, -7.125],
    ])
    for m in range(1, 9):
        for d in range(1, m + 1):
            _assert_matches_statevector(phis, m, d)


@pytest.mark.parametrize("m", [10, 12])
def test_product_formula_matches_statevector_large_registers(m):
    phis = default_phase_sample()[::23]  # every 23rd phase: 22 random, 178 on the grid
    for d in (1, 3, m):
        _assert_matches_statevector(phis, m, d)


def test_blocked_table_equals_single_rows():
    phis = default_phase_sample(42, 500, 512)  # 1012 rows: four blocks at m = 10
    assert len(phis) > 3 * (qpe.BLOCK_ENTRIES >> 10)
    for d in (1, 3, 10):
        single = np.vstack([phase_distributions(phis[i:i + 1], 10, d) for i in range(len(phis))])
        assert np.array_equal(phase_distributions(phis, 10, d), single), d


def test_tvd_scan_equals_one_depth_calls():
    phis = default_phase_sample()[::4]  # 1149 phases: five blocks at m = 10
    depths = [7, 1, 10, 3, 3]
    scan = max_tvd_scan(10, depths, phis)
    assert scan == [max_tvd(10, d, phis) for d in depths]
    full = phase_distributions(phis, 10, 10)
    for d, result in zip(depths, scan):
        tv = 0.5 * np.abs(full - phase_distributions(phis, 10, d)).sum(axis=1)
        assert result == (tv.max(), phis[tv.argmax()]), d


def test_shared_full_depth_weights_give_the_same_floats():
    phis = np.concatenate([random_phases(40, 3), grid_phases(16), [1.0 - 2.0**-53]])
    for m in range(1, 10):
        weights = [qpe._stage_weights(phis, j, m - j) for j in range(m)]
        for d in range(1, m + 1):
            own = qpe._fill(phis, m, d, np.empty((len(phis), 1 << m)))
            shared = qpe._fill(phis, m, d, np.empty((len(phis), 1 << m)), weights)
            assert np.array_equal(own, shared), (m, d)


def test_tvd_scan_matches_statevector_every_depth():
    phis = np.concatenate([random_phases(40, 5), grid_phases(16), [1.0 - 2.0**-53, -0.3, 2.625]])
    for m in range(1, 9):
        full = _statevector_distributions(phis, m, m)
        for d, (worst, arg) in zip(range(1, m + 1), max_tvd_scan(m, range(1, m + 1), phis)):
            tv = 0.5 * np.abs(full - _statevector_distributions(phis, m, d)).sum(axis=1)
            assert abs(worst - tv.max()) <= 1e-12, (m, d)
            assert arg in phis and abs(tv[list(phis).index(arg)] - worst) <= 1e-12, (m, d)


def test_tvd_scan_returns_the_callers_phase():
    grid = grid_phases(64)
    worst, arg = max_tvd(5, 2, grid)
    assert max_tvd(5, 2, grid - 2.0) == (worst, arg - 2.0)  # dyadic: the shift is exact


def test_blocked_success_equals_the_table_reduction():
    phis = default_phase_sample()[::4]  # 1149 phases: five blocks at m = 10
    probs = phase_distributions(phis, 10, 4)
    window = qpe._success_mask(phis, 10)
    assert mean_success_probability(phis, 10, 4) == np.where(window, probs, 0.0).sum(axis=1).mean()
    rng = SplitMix64(5)
    hits = sum(int(np.count_nonzero(window[i][sample_outcomes(phase_distribution(phi, 10, 4), 7, rng)]))
               for i, phi in enumerate(phis))
    assert mean_success_probability(phis, 10, 4, 7, SplitMix64(5)) == hits / (7 * len(phis))


def test_tables_are_distributions_at_every_register_size():
    for m in range(1, 13):
        phis = np.concatenate([grid_phases(1 << m), random_phases(20, m), [1.0 - 2.0**-53]])
        for d in sorted({1, min(2, m), (m + 1) // 2, max(1, m - 1), m}):
            for start in range(0, len(phis), 512):
                probs = phase_distributions(phis[start:start + 512], m, d)
                assert probs.min() >= 0.0, (m, d)
                assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12, (m, d)


@pytest.mark.parametrize("depths", [[0, 2, 3], [2, 7, 3], [2, 3, -1]])
def test_invalid_depth_is_rejected_before_any_table(depths, monkeypatch):
    def no_table(*_):
        raise AssertionError("a table was built")
    monkeypatch.setattr(qpe, "_fill", no_table)
    with pytest.raises(ValueError):
        max_tvd_scan(6, depths, default_phase_sample())


@pytest.mark.parametrize("call", [
    lambda: max_tvd_scan(SCAN_MAX_QUBITS + 1, [2, 0], default_phase_sample()),
    lambda: max_tvd(SCAN_MAX_QUBITS + 1, 2.5, default_phase_sample()),
    lambda: mean_success_probability(default_phase_sample(), SCAN_MAX_QUBITS + 1,
                                     SCAN_MAX_QUBITS + 2),
    lambda: phase_distributions(default_phase_sample(), DIST_MAX_QUBITS + 1, 0),
    lambda: phase_distribution(0.3, DIST_MAX_QUBITS + 1, 2.5),
], ids=["scan", "max_tvd", "success", "distributions", "distribution"])
def test_invalid_depth_with_over_cap_register_builds_no_table(call, monkeypatch):
    def no_table(*_):
        raise AssertionError("a table was built")
    monkeypatch.setattr(qpe, "_fill", no_table)
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call,cap", [
    (lambda m: phase_distribution(0.3, m, m), DIST_MAX_QUBITS),
    (lambda m: closed_form_full_distribution(0.3, m), DIST_MAX_QUBITS),
    (lambda m: max_tvd_scan(m, [m - 1], [0.3]), SCAN_MAX_QUBITS),
    (lambda m: mean_success_probability([0.3], m, m), SCAN_MAX_QUBITS),
], ids=["phase_distribution", "closed_form", "max_tvd_scan", "mean_success"])
def test_register_cap_is_inclusive_and_named(call, cap):
    assert (DIST_MAX_QUBITS, SCAN_MAX_QUBITS) == (20, 12)
    call(cap)
    with pytest.raises(ValueError, match=rf"m={cap + 1} exceeds the cap m <= {cap}$"):
        call(cap + 1)


def test_sample_scans_hold_no_full_table():
    """At m = 10 one (phases, 2^m) float64 table of the default sample is
    36 MiB; the streamed scans stay within a few row blocks."""
    sample = default_phase_sample()
    for scan in (lambda: max_tvd(10, 10, sample), lambda: max_tvd(10, 1, sample),
                 lambda: max_tvd_scan(10, range(1, 11), sample),
                 lambda: mean_success_probability(sample, 10, 10)):
        tracemalloc.start()
        try:
            scan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak


def test_max_tvd_zero_at_full_depth():
    for m in (4, 5, 6):
        worst, _ = max_tvd(m, m, default_phase_sample())
        assert worst == 0.0


def test_max_tvd_frozen_values():
    """Regression freeze of the truncation scan under the default sample
    (500 random phases, seed 42, plus a 4096-point grid)."""
    sample = default_phase_sample()
    expected = {
        (4, 2): 0.43812914515212764,
        (4, 3): 0.051843012377115139,
        (5, 3): 0.13314479141504873,
        (6, 5): 0.0037799518382101295,
    }
    for (m, d), value in expected.items():
        worst, arg = max_tvd(m, d, phases=sample)
        assert worst == pytest.approx(value, rel=1e-9)
        assert 0.0 <= arg < 1.0
    with pytest.raises(ValueError):
        max_tvd(13, 5, default_phase_sample())
    with pytest.raises(ValueError):
        max_tvd(4, 2, phases=np.array([]))


def test_bound_tightness_band():
    # observed max-TV sits well inside the loose bound but is not vacuous
    sample = default_phase_sample()
    ratios = []
    for m in (4, 5, 6):
        for d in range(1, m):
            worst, _ = max_tvd(m, d, phases=sample)
            ratios.append(worst / (math.pi * (m - d) / 2**d))
    assert 0.03 <= min(ratios) and max(ratios) <= 0.31


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(m=st.integers(1, 8), data=st.data())
def test_max_tvd_within_the_tight_bound(m, data):
    d = data.draw(st.integers(1, m), label="d")
    phases = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8), label="phases")
    value, _ = max_tvd(m, d, phases)
    assert value <= tvd_bound(m, d, "tight") + 1e-12


def test_operator_norm_dominates_outcome_tvd():
    """Distribution distance never exceeds the spectral distance of the
    two circuit unitaries (the mechanism behind the truncation bound)."""
    sample = np.concatenate([random_phases(100, 9), grid_phases(64)])
    for m, d in [(4, 2), (4, 3), (5, 2), (5, 3)]:
        worst, _ = max_tvd(m, d, phases=sample)
        delta = plan_unitary(plan_truncated_qft(m, m)) - plan_unitary(plan_truncated_qft(m, d))
        assert worst <= np.linalg.norm(delta, 2) + 1e-12


@pytest.mark.parametrize("k", range(2, 21))
def test_phase_gate_spectral_distance(k):
    # ||diag(1,..,e^{i*theta}) - I|| = |e^{i*theta} - 1| = 2 sin(pi/2^k)
    angle = plan_truncated_qft(k, k).gates[k - 1].angle
    assert abs(np.exp(1j * angle) - 1.0) == pytest.approx(2.0 * math.sin(math.pi / 2**k),
                                                          abs=1e-15)


def test_success_floor_on_small_grid():
    for phi in grid_phases(64):
        assert success_probability(float(phi), 4, 4) >= SUCCESS_FLOOR
    assert SUCCESS_FLOOR == pytest.approx(8.0 / math.pi**2)


def test_success_window_contents():
    # on-grid phase, full depth: all mass on the exact outcome
    assert success_probability(0.25, 4, 4) == pytest.approx(1.0, abs=1e-12)
    # success is a probability
    for d in (1, 2, 4):
        p = success_probability(0.3, 4, d)
        assert 0.0 <= p <= 1.0


def test_mean_success_monotone_toward_full():
    phis = grid_phases(32)
    values = [mean_success_probability(phis, 6, d) for d in (1, 3, 6)]
    assert values[0] < values[1] <= values[2] + 1e-12


def test_sampled_success_tracks_exact():
    phi, m, d, shots = 0.3, 5, 5, 10_000
    exact = success_probability(phi, m, d)
    sampled = mean_success_probability([phi], m, d, shots, SplitMix64(11))
    sigma = math.sqrt(exact * (1.0 - exact) / shots)
    assert abs(sampled - exact) <= 4.0 * sigma
    # same seed, same answer
    assert sampled == mean_success_probability([phi], m, d, shots, SplitMix64(11))


def test_sampled_success_needs_a_generator(monkeypatch):
    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(qpe, "phase_distributions", no_table)
    with pytest.raises(ValueError, match="rng"):
        mean_success_probability(grid_phases(8), 4, 2, shots=10)


@pytest.mark.parametrize("shots", [0, -3])
def test_bad_shot_count_is_rejected_before_any_work(shots, monkeypatch):
    calls = []
    fill = qpe._fill

    def counting_fill(*args, **kwargs):
        calls.append(args[1:3])
        return fill(*args, **kwargs)

    monkeypatch.setattr(qpe, "_fill", counting_fill)
    with pytest.raises(ValueError, match="shot count"):
        mean_success_probability(grid_phases(8), 4, 2, shots=shots, rng=SplitMix64(1))
    assert calls == []


def test_sample_outcomes_distribution():
    dist = phase_distribution(0.37, 4, 4)
    draws = sample_outcomes(dist, 20_000, SplitMix64(8))
    assert draws.shape == (20_000,)
    assert draws.min() >= 0 and draws.max() < dist.dim
    freq = np.bincount(draws, minlength=dist.dim) / 20_000.0
    assert np.max(np.abs(freq - dist.probs)) < 0.02


def test_phase_samples_deterministic():
    assert np.array_equal(random_phases(50, 7), random_phases(50, 7))
    assert not np.array_equal(random_phases(50, 7), random_phases(50, 8))
    grid = grid_phases(128)
    assert len(grid) == 128
    assert grid[0] == 0.0 and grid[-1] < 1.0
    assert np.allclose(np.diff(grid), 1.0 / 128.0)
    sample = default_phase_sample()
    assert len(sample) == 4596
    # either part may be empty
    assert np.array_equal(default_phase_sample(7, 0, 8), grid_phases(8))
    assert np.array_equal(default_phase_sample(7, 5, 0), random_phases(5, 7))
    for count, grid in ((-1, 4), (4, -1)):
        with pytest.raises(ValueError):
            default_phase_sample(7, count, grid)
