import re

import numpy as np
import pytest

from tqft.calibration import (DEFAULT_PLATFORMS, cliff_depth, crossover_error_rate,
                              error_budget, platform_report, tvd_bound)
from tqft.circuits import (
    BIT_REVERSAL,
    CONTROLLED_PHASE,
    HADAMARD,
    CircuitPlan,
    apply_plan_to_array,
    check_depth,
    full_qft_matrix,
    gate_count,
    plan_truncated_qft,
    plan_unitary,
    serialize_plan,
)
from tqft.numerics import SplitMix64
from tqft.qpe import max_tvd, phase_distributions


def brute_force_count(m: int, d: int) -> int:
    """Count controlled phases straight from the stage rule: qubit j gets
    angle indices k = 2..min(d, m-j)."""
    total = 0
    for j in range(m):
        for k in range(2, m - j + 1):
            if k <= d:
                total += 1
    return total


def test_gate_count_reference_values():
    assert gate_count(5, 5) == 10
    assert gate_count(5, 3) == 7
    assert gate_count(30, 11) == 245
    assert gate_count(30, 13) == 282
    assert gate_count(30, 14) == 299
    assert gate_count(30, 30) == 435
    assert gate_count(1, 1) == 0
    assert gate_count(4, 1) == 0  # depth 1 keeps no controlled phases


def test_gate_count_matches_enumeration_and_closed_form():
    for m in range(1, 33):
        for d in range(1, m + 1):
            expected = brute_force_count(m, d)
            assert gate_count(m, d) == expected
            if d < m:
                closed = (m - d + 1) * (d - 1) + (d - 1) * (d - 2) // 2
            else:
                closed = m * (m - 1) // 2
            assert expected == closed


def test_gate_count_monotone_in_depth():
    for m in (2, 7, 16, 31):
        counts = [gate_count(m, d) for d in range(1, m + 1)]
        assert counts == sorted(counts)
        assert counts[-1] == m * (m - 1) // 2


@pytest.mark.parametrize("m,d", [(1, 1), (4, 2), (5, 3), (8, 8), (12, 5)])
def test_plan_structure(m, d):
    plan = plan_truncated_qft(m, d)
    kinds = [g.kind for g in plan.gates]
    assert kinds.count(HADAMARD) == m
    assert kinds.count(CONTROLLED_PHASE) == gate_count(m, d)
    assert kinds[-1] == BIT_REVERSAL
    for gate in plan.gates:
        if gate.kind == CONTROLLED_PHASE:
            assert 2 <= gate.k <= d
            assert gate.control == gate.target + gate.k - 1
            assert 0 <= gate.target < gate.control < m


def test_plan_stage_layout():
    # stage j: H on j, then ascending-k controlled phases targeting j
    plan = plan_truncated_qft(4, 3)
    kinds = [(g.kind, g.target, g.k) for g in plan.gates]
    assert kinds == [
        (HADAMARD, 0, 0), (CONTROLLED_PHASE, 0, 2), (CONTROLLED_PHASE, 0, 3),
        (HADAMARD, 1, 0), (CONTROLLED_PHASE, 1, 2), (CONTROLLED_PHASE, 1, 3),
        (HADAMARD, 2, 0), (CONTROLLED_PHASE, 2, 2),
        (HADAMARD, 3, 0),
        (BIT_REVERSAL, -1, 0),
    ]


def test_plan_enumeration_agrees_with_count_up_to_32():
    for m in range(1, 33):
        for d in range(1, m + 1):
            assert plan_truncated_qft(m, d).controlled_phase_count == gate_count(m, d)


def test_plan_validation_errors():
    with pytest.raises(ValueError):
        plan_truncated_qft(4, 0)
    with pytest.raises(ValueError):
        plan_truncated_qft(4, 5)
    with pytest.raises(ValueError):
        plan_truncated_qft(0, 1)
    with pytest.raises(ValueError):
        CircuitPlan(4, 5)


# Every entry point that takes a register size (and depth): (call, reads d).
_SIZE_AND_DEPTH_CALLS = {
    "gate_count": (gate_count, True),
    "plan_truncated_qft": (plan_truncated_qft, True),
    "tvd_bound": (tvd_bound, True),
    "error_budget": (lambda m, d: error_budget(m, d, 1e-3), True),
    "crossover_error_rate": (crossover_error_rate, True),
    "max_tvd": (lambda m, d: max_tvd(m, d, [0.1, 0.3]), True),
    "phase_distributions": (lambda m, d: phase_distributions(np.array([0.1]), m, d), True),
    "platform_report": (lambda m, _d: platform_report(m, DEFAULT_PLATFORMS), False),
    "cliff_depth": (lambda m, _d: cliff_depth(m), False),
    "check_depth": (check_depth, True),
}


@pytest.mark.parametrize("name", sorted(_SIZE_AND_DEPTH_CALLS))
def test_sizes_and_depths_must_be_integers(name):
    call, reads_depth = _SIZE_AND_DEPTH_CALLS[name]
    call(np.int64(6), np.int64(3))
    call(np.int32(6), 3)
    # (argument named in the error, its value, the call's (m, d))
    bad = [("register size m", m, (m, 3)) for m in (6.5, 6.0, np.float64(6.0), True)]
    if reads_depth:
        bad += [("truncation depth d", d, (6, d)) for d in (2.5, 3.0, np.float64(3.0), True)]
    for named, value, args in bad:
        with pytest.raises(ValueError, match=f"^{re.escape(named)} must be an integer, "
                                             f"got {re.escape(repr(value))}$"):
            call(*args)


def test_bit_reversal_permutation():
    """The depth-1 plan is H on every qubit, then BITREV: row y of its
    unitary is row rev(y) of the Walsh-Hadamard matrix, rev(y) being y
    with its m bits read backwards."""
    for m in (1, 2, 3, 5, 8):
        rev = [int(f"{y:0{m}b}"[::-1], 2) for y in range(1 << m)]
        walsh = np.array([[(-1) ** bin(x & y).count("1") for x in range(1 << m)]
                          for y in range(1 << m)]) / np.sqrt(1 << m)
        assert np.allclose(plan_unitary(plan_truncated_qft(m, 1)), walsh[rev], atol=1e-14)


def test_full_qft_matrix_small():
    h = full_qft_matrix(1)
    assert np.allclose(h, np.array([[1, 1], [1, -1]]) / np.sqrt(2.0))
    u = full_qft_matrix(2)
    w = np.exp(2j * np.pi / 4.0)
    expected = np.array([[w ** (x * y) for x in range(4)] for y in range(4)]) / 2.0
    assert np.allclose(u, expected, atol=1e-15)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-14)
    for m in (0, 9, 2.5, True):
        with pytest.raises(ValueError, match="^register size m of the dense QFT test oracle must"):
            full_qft_matrix(m)


@pytest.mark.parametrize("m", range(1, 7))
def test_full_plan_unitary_matches_dft(m):
    u = plan_unitary(plan_truncated_qft(m, m))
    assert np.max(np.abs(u - full_qft_matrix(m))) < 1e-12


def test_plan_unitary_is_symmetric_and_unitary():
    """Every truncated plan's unitary U equals its transpose, so its
    inverse U^dagger is conj(U): the forward plan on conjugated amplitudes
    runs the adjoint, as the statevector oracle in test_qpe.py does.

    With x_a the bit of x on qubit a (qubit 0 the most significant), the
    DFT phase x*y/N is the sum of x_a y_b 2^(m-2-a-b) over all a, b. Terms
    with a + b <= m - 2 are integers, and a term with a + b = m - 2 + k is
    the rotation 2*pi/2^k, which depth d keeps for k <= d. So entry (y, x)
    of U is exp(2*pi*i * sum of x_a y_b 2^(m-2-a-b) over
    m - 1 <= a + b <= m - 2 + d) / sqrt(N), a condition symmetric in a and
    b, hence in x and y, at every (m, d)."""
    for m in range(1, 9):
        for d in range(1, m + 1):
            u = plan_unitary(plan_truncated_qft(m, d))
            assert np.max(np.abs(u - u.T)) <= 1e-14, (m, d)
            assert np.max(np.abs(u.conj().T @ u - np.eye(1 << m))) <= 1e-13, (m, d)


def _applied(amps, plan):
    out = amps.copy()
    apply_plan_to_array(out, plan)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-10
    return out


def test_apply_plan_uniform_from_zero():
    for m in (1, 3, 6):
        basis = np.zeros(1 << m, dtype=np.complex128)
        basis[0] = 1.0
        out = _applied(basis, plan_truncated_qft(m, m))
        assert np.allclose(out, np.full(1 << m, (1 << m) ** -0.5), atol=1e-14)


def test_apply_plan_forward_inverse_identity():
    """U is symmetric and unitary, so U conj(U psi) = U U^dagger conj(psi)
    = conj(psi): the forward plan between two conjugations undoes it."""
    rng = SplitMix64(314)
    for _ in range(1000):
        m, d, re_seed, im_seed = rng.next_u64_array(4).tolist()
        m = 1 + m % 8
        d = 1 + d % m
        re = SplitMix64(re_seed).random_array(1 << m) - 0.5
        im = SplitMix64(im_seed).random_array(1 << m) - 0.5
        amps = re + 1j * im
        amps /= np.linalg.norm(amps)
        plan = plan_truncated_qft(m, d)
        back = _applied(_applied(amps, plan).conj(), plan)
        assert np.max(np.abs(back - amps.conj())) < 1e-12


def test_apply_plan_matches_unitary():
    rng = SplitMix64(2718)
    for m in (2, 3, 5):
        for d in range(1, m + 1):
            plan = plan_truncated_qft(m, d)
            u = plan_unitary(plan)
            re_seed, im_seed = rng.next_u64_array(2).tolist()
            re = SplitMix64(re_seed).random_array(1 << m) - 0.5
            im = SplitMix64(im_seed).random_array(1 << m) - 0.5
            amps = re + 1j * im
            amps /= np.linalg.norm(amps)
            out = _applied(amps, plan)
            assert np.max(np.abs(out - u @ amps)) < 1e-12


def test_apply_plan_to_array_batch_matches_single():
    rng = SplitMix64(1618)
    m, d = 5, 3
    plan = plan_truncated_qft(m, d)
    re_seed, im_seed = rng.next_u64_array(2).tolist()
    batch = (SplitMix64(re_seed).random_array(6 * (1 << m))
             + 1j * SplitMix64(im_seed).random_array(6 * (1 << m)))
    batch = batch.reshape(6, 1 << m)
    batch /= np.linalg.norm(batch, axis=1, keepdims=True)
    stacked = batch.copy()
    apply_plan_to_array(stacked, plan)
    for row in range(6):
        single = _applied(batch[row], plan)
        assert np.max(np.abs(stacked[row] - single)) < 1e-13


def test_serialized_plans_are_distinct():
    """A plan is determined by (m, d), and so is its text: every pair gets
    its own text, headed by the pair and closed by the bit reversal."""
    texts = set()
    for m in range(1, 9):
        for d in range(1, m + 1):
            text = serialize_plan(plan_truncated_qft(m, d))
            assert text.splitlines()[0] == f"m={m} d={d}"
            assert text.splitlines()[-1] == "BITREV"
            texts.add(text)
    assert len(texts) == 36
