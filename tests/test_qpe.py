import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqft import qpe
from tqft.calibration import tvd_bound
from tqft.circuits import apply_plan_to_array, plan_truncated_qft, plan_unitary
from tqft.numerics import SplitMix64, circular_distance, circular_distance_array
from tqft.qpe import (
    DIST_MAX_QUBITS,
    SCAN_MAX_QUBITS,
    SUCCESS_FLOOR,
    PhaseDistribution,
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
        m = 2 + int(rng.next_u64_array(1)[0]) % 11  # 2..12
        phi = rng.random()
        circuit = phase_distribution(phi, m, m)
        kernel = closed_form_full_distribution(phi, m)
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
    for m, probs in ((True, [0.5, 0.5]), (1.0, [0.5, 0.5]), (0, [1.0])):
        with pytest.raises(ValueError, match="^register size m must "):
            PhaseDistribution(m, np.array(probs))
        with pytest.raises(ValueError, match="^register size m must "):
            closed_form_full_distribution(0.3, m)
    assert PhaseDistribution(np.int64(1), np.array([0.5, 0.5])).m == 1


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


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.6, -0.1])
@pytest.mark.parametrize("shots", [None, 10], ids=["exact", "sampled"])
def test_bad_success_probability_is_a_numerical_failure(shots, value, monkeypatch):
    # At phi = 0.3, m = 4 the window holds two outcomes, so 0.6 sums to 1.2.
    exact = qpe._fill
    monkeypatch.setattr(qpe, "_fill",
                        lambda phis, m, d, *args: np.full_like(exact(phis, m, d, *args), value))
    rng = SplitMix64(1)
    with pytest.raises(ArithmeticError, match="m=4 d=4"):
        mean_success_probability([0.3], 4, 4, shots, rng)
    assert rng.random() == SplitMix64(1).random()  # raised before any shot was drawn


def test_batch_distributions_match_single():
    phis = np.array([0.01, 0.25, 0.619, 0.99])
    batch = phase_distributions(phis, 6, 4)
    for i, phi in enumerate(phis):
        single = phase_distribution(float(phi), 6, 4)
        assert np.max(np.abs(batch[i] - single.probs)) < 1e-13


def _statevector_distributions(phis, m, d):
    """The outcome distributions of the adjoint plan on the kickback states
    exp(2*pi*i*x*phi) / sqrt(2^m). Every plan's unitary U is symmetric
    (test_circuits.py), so U^dagger = conj(U) and |U^dagger psi|^2 =
    |U conj(psi)|^2: the forward plan runs gate by gate over the conjugate
    states exp(-2*pi*i*x*phi) / sqrt(2^m)."""
    n = 1 << m
    amps = np.exp(-2j * np.pi * np.outer(np.asarray(phis) % 1.0, np.arange(n))) / math.sqrt(n)
    apply_plan_to_array(amps, plan_truncated_qft(m, d))
    return np.abs(amps) ** 2


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
    # Each depth maximises over its own class representatives, never over a
    # smaller depth's, so a sweep reads what one-depth calls do.
    for m in (4, 5, 6):
        depths = range(1, m + 1)
        sample = default_phase_sample()
        assert max_tvd_scan([(m, depths)], sample) == [[max_tvd(m, d, sample) for d in depths]], m
    phis = default_phase_sample()[::4]  # 1149 phases: five blocks at m = 10
    depths = [7, 1, 10, 3, 3]
    [scan] = max_tvd_scan([(10, depths)], phis)
    assert scan == [max_tvd(10, d, phis) for d in depths]
    # The scan sums each phase's 2^m terms pairwise over the outcome axis,
    # the table row-wise: two pairwise sums, each within m ulps of exact.
    full = phase_distributions(phis, 10, 10)
    for d, (worst, arg) in zip(depths, scan):
        tv = 0.5 * np.abs(full - phase_distributions(phis, 10, d)).sum(axis=1)
        bound = 2 * 10 * math.ulp(tv.max())
        assert abs(worst - tv.max()) <= bound, d
        assert tv.max() - tv[list(phis).index(arg)] <= bound, d


EDGE_PHASES = [0.0, 0.5, 1.0 - 2.0**-53, 2.0**-53, 0.25 - 2.0**-54, 1.0 / 3.0]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(m=st.integers(1, SCAN_MAX_QUBITS), data=st.data())
def test_per_phase_tvd_is_within_2m_ulps_of_the_exact_sum(m, data):
    d = data.draw(st.integers(1, m), label="d")
    phi = data.draw(st.one_of(
        st.sampled_from(EDGE_PHASES),
        st.integers(0, (1 << m) - 1).map(lambda y: y / (1 << m)),  # grid edges
        st.floats(0.0, 1.0, exclude_max=True),
    ), label="phi")
    diff = np.abs(phase_distributions([phi], m, m)[0] - phase_distributions([phi], m, d)[0])
    exact = 0.5 * math.fsum(diff)
    value, arg = max_tvd(m, d, [phi])
    assert arg == phi
    assert abs(value - exact) <= 2 * m * math.ulp(exact), (value, exact)


def _fresh_weights(phis, m, d):
    """qpe._stage_weights into a buffer of its own, with no spare row."""
    rows = sum(1 << (min(d, m - j) - 1) for j in range(m))
    return qpe._stage_weights(phis, m, d, np.empty((rows, len(phis))))


def _fresh_fill(phis, m, d, weights=None):
    """qpe._fill into a buffer of its own, with depth-d weights by default."""
    weights = _fresh_weights(phis, m, d) if weights is None else weights
    return qpe._fill(phis, m, d, weights, np.empty((1 << m, len(phis))))


def test_shared_full_depth_weights_give_the_same_floats():
    phis = np.concatenate([random_phases(40, 3), grid_phases(16), [1.0 - 2.0**-53]])
    for m in range(1, 10):
        weights = _fresh_weights(phis, m, m)
        for d in range(1, m + 1):
            own = _fresh_fill(phis, m, d)
            shared = _fresh_fill(phis, m, d, weights)
            assert np.array_equal(own, shared), (m, d)
            assert np.array_equal(own.T, phase_distributions(phis, m, d)), (m, d)


# Every (k, width) with at most 2^20 weights: the table paths never build a
# stage wider than BLOCK_ENTRIES / 2 (at m > 18, one column of 2^19 rows).
@pytest.mark.parametrize("cols", [1, 2, 3, 7, 255, 4095])
def test_stage_weights_round_as_the_two_product_formula(cols):
    """Each stage view equals min((cos b (x) cos a + sin b (x) sin a)^2, 1)
    bit for bit; an einsum that fused the multiply-add would fail here. The
    registers m = k and m = 12, at full depth and at depth k, put a stage
    of depth k at j = 0 and at j = 12 - k."""
    pool = np.concatenate([EDGE_PHASES, grid_phases(1 << 12)[::97], random_phases(4095, 8)])
    for k in range(1, 13):
        if cols << (k - 1) > 1 << 20:
            continue
        b = np.pi * np.arange(1 << (k - 1)) / (1 << k)
        for start in range(0, 16 if cols < 8 else 1):
            phis = pool[start:start + cols]
            for m, d, j in sorted({(k, k, 0), (12, 12, 12 - k), (12, k, 0), (12, k, 12 - k)}):
                a = np.pi * ((phis * 2.0**j) % 1.0)
                expected = np.multiply.outer(np.cos(b), np.cos(a))
                expected += np.multiply.outer(np.sin(b), np.sin(a))
                expected = np.minimum(np.square(expected), 1.0)
                stage = _fresh_weights(phis, m, d)[j]
                assert np.array_equal(stage, expected), (k, m, d, j, start)


def test_stage_fraction_by_floor_is_bitwise_the_remainder():
    """x - floor(x) is exact for x = 2^j phi >= 0 (Sterbenz), so the stage
    weights equal those built from (2^j phi) % 1.0 bit for bit, for every
    j a register at the m = 20 cap reads."""
    grid = grid_phases(1 << 12)
    phis = np.concatenate([EDGE_PHASES, [2.0**-1074, 2.0**-1022, 0.75 + 2.0**-53], grid,
                           np.nextafter(grid[1:], 0.0), random_phases(4096, 17)])
    stages = _fresh_weights(phis, DIST_MAX_QUBITS, 1)
    for j in range(DIST_MAX_QUBITS):
        x = phis * 2.0**j
        assert np.array_equal((x - np.floor(x)).view(np.uint64), (x % 1.0).view(np.uint64)), j
        a = np.pi * (x % 1.0)
        expected = np.square(np.cos(a))[None, :]
        assert np.array_equal(stages[j], np.minimum(expected, 1.0)), j


def test_fill_into_a_reused_poisoned_buffer_equals_a_fresh_one():
    """Table and weights buffers, each NaN-poisoned and reused by every
    call, give a fresh buffer's floats, also for a narrower last block."""
    phis = np.concatenate([random_phases(13, 4), EDGE_PHASES])  # 19 phases
    narrow = phis[:7]  # a last block narrower than the buffers
    for m in range(1, 11):
        buf = np.empty((1 << m, len(phis)))
        weights_buf = np.empty(((1 << m) - 1, len(phis)))
        for d in range(1, m + 1):
            for batch, depth in ((phis, d), (phis, m), (narrow, d)):
                weights_buf.fill(math.nan)
                weights = qpe._stage_weights(batch, m, depth, weights_buf)
                assert all(np.shares_memory(w, weights_buf) for w in weights), (m, depth)
                buf.fill(math.nan)
                table = qpe._fill(batch, m, d, weights, buf)
                assert np.shares_memory(table, buf), (m, d)
                assert np.array_equal(table, _fresh_fill(batch, m, d)), (m, d, depth, len(batch))


def test_fill_row_y_holds_outcome_y():
    phis = np.concatenate([random_phases(9, 6), EDGE_PHASES, [-0.3, 2.625]])
    for m in (1, 2, 5, 9):
        for d in sorted({1, m // 2 or 1, m}):
            table = _fresh_fill(phis % 1.0, m, d)
            probs = phase_distributions(phis, m, d)
            for y in range(1 << m):
                assert np.array_equal(table[y], probs[:, y]), (m, d, y)


def test_tvd_scan_matches_statevector_every_depth():
    phis = np.concatenate([random_phases(40, 5), grid_phases(16), [1.0 - 2.0**-53, -0.3, 2.625]])
    for m in range(1, 9):
        full = _statevector_distributions(phis, m, m)
        for d, (worst, arg) in zip(range(1, m + 1), max_tvd_scan([(m, range(1, m + 1))], phis)[0]):
            tv = 0.5 * np.abs(full - _statevector_distributions(phis, m, d)).sum(axis=1)
            assert abs(worst - tv.max()) <= 1e-12, (m, d)
            assert arg in phis and abs(tv[list(phis).index(arg)] - worst) <= 1e-12, (m, d)


def test_tvd_scan_returns_the_callers_phase():
    grid = grid_phases(64)
    worst, arg = max_tvd(5, 2, grid)
    assert max_tvd(5, 2, grid - 2.0) == (worst, arg - 2.0)  # dyadic: the shift is exact


def _classes(phis, d):
    """(first index, size) of each residue class mod 2^-d of the sample
    mod 1, in sample order, from exact rational residues."""
    first, sizes = {}, {}
    for i, phi in enumerate(np.asarray(phis, dtype=np.float64) % 1.0):
        r = Fraction(float(phi)) % Fraction(1, 1 << d)
        first.setdefault(r, i)
        sizes[r] = sizes.get(r, 0) + 1
    return np.array(list(first.values())), np.array([sizes[r] for r in first])


def _class_weighted_mean(window_sums, phis, d):
    """The exact-mode reduction: each class's first window sum, weighted by
    the class size, over the sample length."""
    reps, sizes = _classes(phis, d)
    return (sizes * window_sums[reps]).sum() / len(phis)


def test_blocked_success_equals_the_table_reduction():
    phis = default_phase_sample()[::4]  # 1149 phases: five blocks at m = 10
    probs = phase_distributions(phis, 10, 4)
    outcomes = np.arange(1024) / 1024
    window = circular_distance_array(phis[:, None], outcomes[None, :]) <= 2.0**-10
    sums = np.where(window, probs, 0.0).sum(axis=1)
    assert mean_success_probability(phis, 10, 4) == _class_weighted_mean(sums, phis, 4)
    assert abs(mean_success_probability(phis, 10, 4) - sums.mean()) <= 1e-15
    rng = SplitMix64(5)
    hits = sum(int(np.count_nonzero(rng.random_array(7) < sums[i])) for i in range(len(phis)))
    assert mean_success_probability(phis, 10, 4, 7, SplitMix64(5)) == hits / (7 * len(phis))


@pytest.mark.parametrize("m", range(1, SCAN_MAX_QUBITS + 1))
def test_success_window_equals_the_table_reduction_at_every_register_size(m):
    n = 1 << m
    grid = grid_phases(n)[::max(1, n >> 5)]
    phis = np.concatenate([grid, grid + 2.0**-52, random_phases(20, m), [1.0 - 2.0**-53, -0.3]])
    window = circular_distance_array(phis[:, None], (np.arange(n) / n)[None, :]) <= 2.0**-m
    for d in sorted({1, (m + 1) // 2, m}):
        probs = phase_distributions(phis, m, d)
        sums = np.where(window, probs, 0.0).sum(axis=1)
        assert mean_success_probability(phis, m, d) == _class_weighted_mean(sums, phis, d), d
        assert abs(mean_success_probability(phis, m, d) - sums.mean()) <= 1e-15, d
    rng = SplitMix64(m)  # sampled mode at d = m, the last window sums above
    hits = sum(int(np.count_nonzero(rng.random_array(5) < sums[i])) for i in range(len(phis)))
    assert mean_success_probability(phis, m, m, 5, SplitMix64(m)) == hits / (5 * len(phis))


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
        max_tvd_scan([(6, depths)], default_phase_sample())


@pytest.mark.parametrize("call", [
    lambda: max_tvd_scan([(SCAN_MAX_QUBITS + 1, [2, 0])], default_phase_sample()),
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
    (lambda m: max_tvd_scan([(m, [m - 1])], [0.3]), SCAN_MAX_QUBITS),
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
                 lambda: max_tvd_scan([(10, range(1, 11))], sample),
                 lambda: mean_success_probability(sample, 10, 10)):
        tracemalloc.start()
        try:
            scan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak


def test_tvd_scan_holds_two_tables_within_one_block_budget():
    """The reference and truncated tables share one block of BLOCK_ENTRIES
    entries, and the reused stage weights buffer takes half a block more."""
    sample = default_phase_sample()
    budget = 2 * qpe.BLOCK_ENTRIES * 8
    for scan in (lambda: max_tvd(10, 1, sample),
                 lambda: max_tvd_scan([(12, range(1, 13))], sample)):
        scan()  # fills the per-depth operand cache outside the trace
        tracemalloc.start()
        try:
            scan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, peak / (qpe.BLOCK_ENTRIES * 8)


def test_tvd_scan_does_not_depend_on_its_block_width(monkeypatch):
    """One column per block, and three with a partial last block, give the
    default width's floats bit for bit, at every depth."""
    sample = default_phase_sample(7, 200, 700)
    default = {m: max_tvd_scan([(m, range(1, m + 1))], sample) for m in range(1, 9)}
    width = len(qpe._representatives(sample % 1.0, 1)[0])
    assert width % 3 and width > qpe.BLOCK_ENTRIES >> 9  # a partial last block at m = 8
    for m, expected in default.items():
        for cols in (1, 3):
            monkeypatch.setattr(qpe, "BLOCK_ENTRIES", cols << (m + 1))
            assert max_tvd_scan([(m, range(1, m + 1))], sample) == expected, (m, cols)


def test_one_table_paths_do_not_depend_on_their_block_width(monkeypatch):
    """One column per block, and three with a partial last block, give the
    default width's floats bit for bit, and sampled success leaves its rng
    stream where the default width does: a reused table or weights buffer
    that leaked a stale row into the next block would fail here."""
    sample = default_phase_sample(7, 200, 701)[::3]  # 301 phases
    assert len(sample) % 3 and len(qpe._representatives(sample, 3)[0]) % 3

    def results(m):
        rng = SplitMix64(m)
        return ([phase_distributions(sample, m, d) for d in range(1, m + 1)],
                [mean_success_probability(sample, m, d) for d in range(1, m + 1)],
                [mean_success_probability(sample, m, d, 5, rng) for d in range(1, m + 1)],
                rng.random())
    default = {m: results(m) for m in range(1, 9)}
    for m, (tables, exact, sampled, position) in default.items():
        for cols in (1, 3):
            monkeypatch.setattr(qpe, "BLOCK_ENTRIES", cols << m)
            got_tables, got_exact, got_sampled, got_position = results(m)
            assert all(map(np.array_equal, got_tables, tables)), (m, cols)
            assert (got_exact, got_sampled, got_position) == (exact, sampled, position), (m, cols)


@pytest.mark.parametrize("value", [math.nan, math.inf, 1.0])
def test_bad_tv_distance_is_a_numerical_failure(value, monkeypatch):
    # A truncated table of ones sums to 2^m, so its TV is (2^m - 1) / 2 > 1.
    exact = qpe._fill
    monkeypatch.setattr(qpe, "_fill", lambda phis, m, d, *args: exact(phis, m, d, *args)
                        if d == m else np.full_like(exact(phis, m, d, *args), value))
    with pytest.raises(ArithmeticError, match="TV distance for m=6 d=2"):
        max_tvd(6, 2, default_phase_sample())


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


# Phases k / 2^52: adding any 2^-t, t >= 1, and reducing mod 1 are exact.
DYADIC_PHASES = st.integers(0, (1 << 52) - 1).map(lambda k: k * 2.0**-52)
PERIOD_ULPS = 8 * math.ulp(1.0)  # observed at most 4 over 3000 random (m, d, t, phi)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(m=st.integers(1, 10), data=st.data())
def test_shifting_the_phase_by_2_to_the_minus_t_rotates_the_outcomes(m, data):
    """P_d(y + 2^(m-t) mod N | phi + 2^-t) = P_d(y | phi) for t <= d, the
    covariance behind the 2^-d period (qpe module docstring)."""
    d = data.draw(st.integers(1, m), label="d")
    t = data.draw(st.integers(1, d), label="t")
    phi = data.draw(DYADIC_PHASES, label="phi")
    rows = phase_distributions([phi, phi + 2.0**-t], m, d)
    assert np.max(np.abs(np.roll(rows[0], 1 << (m - t)) - rows[1])) <= PERIOD_ULPS


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(m=st.integers(1, 10), data=st.data())
def test_tvd_and_success_have_period_2_to_the_minus_d(m, data):
    d = data.draw(st.integers(1, m), label="d")
    phi = data.draw(DYADIC_PHASES, label="phi")
    shifted = phi + data.draw(st.integers(1, (1 << d) - 1), label="k") * 2.0**-d
    assert abs(max_tvd(m, d, [phi])[0] - max_tvd(m, d, [shifted])[0]) <= PERIOD_ULPS
    assert abs(success_probability(phi, m, d) - success_probability(shifted, m, d)) <= PERIOD_ULPS


def test_half_a_period_is_not_a_period():
    """A shift by 2^-(d+1) moves both quantities: 2^-d is the period, not a multiple of it."""
    m, d, phi = 4, 2, 0.3
    assert max_tvd(m, d, [phi])[0] == pytest.approx(0.11128327849554297, rel=1e-12)
    assert max_tvd(m, d, [phi + 2.0**-(d + 1)])[0] == pytest.approx(0.32006689575565306, rel=1e-12)
    assert success_probability(phi, m, d) == pytest.approx(0.8337315176764164, rel=1e-12)
    assert success_probability(phi + 2.0**-(d + 1), m, d) == pytest.approx(0.6213237268681754,
                                                                           rel=1e-12)


@st.composite
def _class_samples(draw, m):
    """Phase samples with many phases per residue class: grid points, free
    floats, phases outside [0, 1), and repeats shifted by periods and integers."""
    base = draw(st.lists(st.one_of(
        st.integers(0, 4095).map(lambda k: k / 4096),
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(-3.0, 3.0),
    ), min_size=1, max_size=12), label="base")
    shifts = st.tuples(st.sampled_from(base), st.integers(0, 1 << m), st.integers(-2, 2))
    extra = draw(st.lists(shifts, max_size=12), label="repeats")
    return base + [phi + k * 2.0**-m + n for phi, k, n in extra]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(m=st.integers(1, 10), data=st.data())
def test_class_scans_equal_an_exhaustive_per_phase_scan(m, data):
    phases = data.draw(_class_samples(m), label="phases")
    depths = data.draw(st.one_of(st.just([m]), st.lists(st.integers(1, m), min_size=1,
                                                        max_size=4)), label="depths")
    for d, (value, arg) in zip(depths, max_tvd_scan([(m, depths)], phases)[0]):
        per_phase = [max_tvd(m, d, [phi])[0] for phi in phases]
        assert abs(value - max(per_phase)) <= 1e-15, d
        # The first sample phase of the earliest maximising class, as given.
        reps, _ = _classes(phases, d)
        assert arg == phases[min(i for i in reps if per_phase[i] == value)], d
        exact = mean_success_probability(phases, m, d)
        assert abs(exact - np.mean([success_probability(phi, m, d) for phi in phases])) <= 1e-15, d


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_a_sweep_equals_one_depth_calls(data):
    """One class structure for every m of a sweep: repeated m, depths
    unsorted, repeated or equal to m, and an m with no depth at all."""
    ms = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=4), label="ms")
    sweep = [(m, data.draw(st.lists(st.integers(1, m), max_size=4), label="depths"))
             for m in ms]
    phases = data.draw(_class_samples(max(ms)), label="phases")
    scans = max_tvd_scan(sweep, phases)
    assert scans == [[max_tvd(m, d, phases) for d in depths] for m, depths in sweep]
    for (m, depths), scan in zip(sweep, scans):
        for d, (value, arg) in zip(depths, scan):
            # Each class's value is its first phase's one-phase TV; the
            # argmax is the caller's first phase of the earliest maximising class.
            reps, _ = _classes(phases, d)
            per_class = {i: max_tvd(m, d, [phases[i]])[0] for i in reps}
            assert value == max(per_class.values()), (m, d)
            assert arg == phases[min(i for i, tv in per_class.items() if tv == value)], (m, d)


def test_a_tie_goes_to_the_earliest_class_in_the_sample(monkeypatch):
    """Exact ties between classes hardly arise in floats, so a fake table
    gives TV 1 to every phase but 0.125. Depth 1's classes start at 0.125,
    0.375 and 0.25; 0.375 shares depth 2's class of 0.125, so prefix order
    puts 0.25 before it."""
    def tied_fill(batch, m, d, *_):
        table = np.zeros((1 << m, len(batch)))
        if d < m:
            table[0] = np.where(batch == 0.125, 0.0, 2.0)
        return table
    monkeypatch.setattr(qpe, "_fill", tied_fill)
    scan = max_tvd_scan([(4, [1, 2])], [0.125, 0.375, 0.625, 0.25])
    assert scan == [[(1.0, 0.375), (1.0, 0.25)]]


def test_a_single_phase_and_full_depth_only_scans(monkeypatch):
    with monkeypatch.context() as patch:  # d = m rows and an m without rows build no table
        patch.setattr(qpe, "_fill", None)
        assert max_tvd_scan([(6, [6]), (4, [])], [2.7, 0.7, 0.2]) == [[(0.0, 2.7)], []]
    for d in range(1, 7):
        value, arg = max_tvd(6, d, [-1.3])
        assert arg == -1.3 and value == max_tvd(6, d, [0.7])[0]
        assert mean_success_probability([-1.3, 0.7], 6, d) == success_probability(0.7, 6, d)


def test_scans_fill_one_column_per_residue_class(monkeypatch):
    fill, columns = qpe._fill, {}  # phase columns filled, per depth

    def counting_fill(batch, m, d, *args):
        columns[d] = columns.get(d, 0) + len(batch)
        return fill(batch, m, d, *args)
    monkeypatch.setattr(qpe, "_fill", counting_fill)
    sample = default_phase_sample()
    for d in range(1, 11):
        classes = len({Fraction(float(phi)) % Fraction(1, 1 << d) for phi in sample})
        assert classes < len(sample)
        columns.clear()
        max_tvd(10, d, sample)
        assert columns == ({} if d == 10 else {10: classes, d: classes}), d
        columns.clear()
        mean_success_probability(sample, 10, d)
        assert columns == {d: classes}, d
    columns.clear()
    mean_success_probability(sample, 10, 3, 1, SplitMix64(1))
    assert columns == {3: len(sample)}  # sampled mode evaluates every phase
    # A sweep fills the reference over depth 1's classes, and each depth
    # only over its own: 500 seeded phases plus 2^(12-d) grid classes.
    columns.clear()
    max_tvd_scan([(10, range(1, 11))], sample)
    assert columns == {10: 2548, **{d: 500 + 2**(12 - d) for d in range(1, 10)}}


def test_a_sweep_builds_its_class_structure_once(monkeypatch):
    representatives, calls = qpe._representatives, []

    def counting(phis, d):
        calls.append(d)
        return representatives(phis, d)
    monkeypatch.setattr(qpe, "_representatives", counting)
    max_tvd_scan([(4, range(1, 5)), (5, range(1, 6)), (6, range(1, 7))], default_phase_sample())
    assert sorted(calls) == [1, 2, 3, 4, 5]  # once per truncated depth, not once per m


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


@pytest.mark.parametrize("m", range(1, 9))
def test_sampled_success_is_binomial_around_exact(m):
    # Phase i's count is Binomial(shots, p_i), so the total has mean
    # shots * sum(p_i) = shots * len(phis) * exact and variance
    # shots * sum(p_i (1 - p_i)) <= shots * len(phis) * exact * (1 - exact).
    # With that bound, |z| > 5 has a two-sided false-alarm rate below 5.7e-7
    # per check (normal approximation), below 1e-5 over the 15 checks here.
    phis, shots = default_phase_sample(m, 40, 32), 500
    for d in sorted({1, m}):
        exact = mean_success_probability(phis, m, d)
        sampled = mean_success_probability(phis, m, d, shots, SplitMix64(100 + m))
        sigma = math.sqrt(exact * (1.0 - exact) / (shots * len(phis)))
        assert abs(sampled - exact) <= 5.0 * sigma, (m, d, sampled, exact, sigma)


def test_sampled_success_advances_the_stream_by_shots_per_phase():
    phis, shots = default_phase_sample(2, 30, 64), 9
    rng = SplitMix64(4)
    mean_success_probability(phis, 6, 3, shots, rng)
    fresh = SplitMix64(4)
    fresh.random_array(shots * len(phis))
    assert rng.random() == fresh.random()


@pytest.mark.parametrize("shots", [1, 7, 333, 1000, 40_000])
def test_sampled_success_draws_in_chunks_as_one_call_per_phase(shots):
    """One rng call covers (BLOCK_ENTRIES >> 3) // shots consecutive phases,
    at least one: 333 and 1000 shots put chunk boundaries inside this
    100-phase sample (98 and 32 phases a call), 40 000 shots take one phase
    a call. The count equals that of one random_array(shots) call per phase."""
    m, d = 6, 3
    phis = default_phase_sample(3, 36, 64)
    window = circular_distance_array(phis[:, None], (np.arange(64) / 64)[None, :]) <= 2.0**-m
    sums = np.where(window, phase_distributions(phis, m, d), 0.0).sum(axis=1)
    reference = SplitMix64(shots)
    hits = sum(int(np.count_nonzero(reference.random_array(shots) < q)) for q in sums)
    rng, calls = SplitMix64(shots), []
    draw = rng.random_array
    rng.random_array = lambda n: calls.append(n) or draw(n)
    assert mean_success_probability(phis, m, d, shots, rng) == hits / (shots * len(phis))
    rows = max(1, (qpe.BLOCK_ENTRIES >> 3) // shots)
    assert calls == [shots * min(rows, len(phis) - i) for i in range(0, len(phis), rows)]
    assert rng.random() == reference.random()


def test_sampled_success_draws_no_outcome(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled success built or sampled an outcome distribution")

    monkeypatch.setattr(qpe, "sample_outcomes", refuse)
    monkeypatch.setattr(qpe, "PhaseDistribution", refuse)
    phis = default_phase_sample(1, 20, 16)
    sampled = mean_success_probability(phis, 6, 2, 10, SplitMix64(1))
    assert sampled == mean_success_probability(phis, 6, 2, 10, SplitMix64(1))
    assert 0.0 < sampled <= 1.0


def test_sampled_success_needs_a_generator(monkeypatch):
    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(qpe, "_fill", no_table)
    with pytest.raises(ValueError, match="rng"):
        mean_success_probability(grid_phases(8), 4, 2, shots=10)


@pytest.mark.parametrize("shots", [0, -3, 2.5, True, np.float64(4.0)])
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


@pytest.mark.parametrize("call", [
    lambda bad: grid_phases(bad),
    lambda bad: random_phases(bad, 1),
    lambda bad: default_phase_sample(1, bad, 4),
    lambda bad: default_phase_sample(1, 4, bad),
    lambda bad: sample_outcomes(phase_distribution(0.3, 3, 2), bad, SplitMix64(1)),
    lambda bad: default_phase_sample(bad, 3, 0),
], ids=["grid", "random", "sample_count", "sample_grid", "sample_outcomes", "sample_seed"])
@pytest.mark.parametrize("bad", [2.5, True, False, np.float64(3.0), "3"])
def test_counts_must_be_integers(call, bad):
    with pytest.raises(ValueError, match="must be an integer"):
        call(bad)


@pytest.mark.parametrize("call, cap", [
    (lambda n: grid_phases(n), qpe.MAX_PHASES),
    (lambda n: random_phases(n, 1), qpe.MAX_PHASES),
    (lambda n: mean_success_probability([0.3], 3, 2, n, SplitMix64(1)), qpe.MAX_SHOTS),
    (lambda n: sample_outcomes(phase_distribution(0.3, 3, 2), n, SplitMix64(1)), qpe.MAX_SHOTS),
], ids=["grid", "random", "mean_success", "sample_outcomes"])
def test_counts_are_capped(call, cap):
    call(cap)
    with pytest.raises(ValueError, match=f"must lie in [01]..{cap}, got {cap + 1}$"):
        call(cap + 1)


def test_numpy_integer_counts_are_accepted():
    assert np.array_equal(grid_phases(np.int64(8)), grid_phases(8))
    assert np.array_equal(random_phases(np.int32(5), 3), random_phases(5, 3))
    assert (mean_success_probability([0.3], 3, 2, np.int64(50), SplitMix64(1))
            == mean_success_probability([0.3], 3, 2, 50, SplitMix64(1)))


@pytest.mark.parametrize("call", [
    lambda: phase_distributions(0.3, 3, 2),
    lambda: phase_distributions([[0.1, 0.2], [0.3, 0.4]], 3, 2),
    lambda: max_tvd(4, 2, [[0.1, 0.2], [0.3, 0.4]]),
    lambda: max_tvd_scan([(4, [1, 2])], np.zeros((3, 1))),
    lambda: mean_success_probability([[0.1, 0.2]], 4, 2),
    lambda: mean_success_probability(np.float64(0.3), 4, 2, 5, SplitMix64(1)),
], ids=["scalar", "distributions", "max_tvd", "scan", "success", "sampled"])
def test_non_1d_phase_sample_is_rejected_before_any_table(call, monkeypatch):
    def no_table(*_):
        raise AssertionError("a table was built")
    monkeypatch.setattr(qpe, "_fill", no_table)
    with pytest.raises(ValueError, match=r"phase sample must be 1-D, got shape \("):
        call()


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
