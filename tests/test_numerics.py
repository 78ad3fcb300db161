import math

import numpy as np
import pytest

from tqft import numerics
from tqft.numerics import (
    ConvergenceError,
    SplitMix64,
    SymmetricMatrix,
    circular_distance,
    circular_distance_array,
    jacobi_eigh,
)

# Reference streams transcribed from the published splitmix64 algorithm
# (finalizer constants 0x9E3779B97F4A7C15 / 0xBF58476D1CE4E5B9 /
# 0x94D049BB133111EB), first five outputs per seed.
SPLITMIX_REFERENCE = {
    0: [16294208416658607535, 7960286522194355700, 487617019471545679,
        17909611376780542444, 1961750202426094747],
    42: [13679457532755275413, 2949826092126892291, 5139283748462763858,
         6349198060258255764, 701532786141963250],
    1234567: [6457827717110365317, 3203168211198807973, 9817491932198370423,
              4593380528125082431, 16408922859458223821],
}


@pytest.mark.parametrize("seed", sorted(SPLITMIX_REFERENCE))
def test_splitmix_reference_stream(seed):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(5)] == SPLITMIX_REFERENCE[seed]


@pytest.mark.parametrize("seed", sorted(SPLITMIX_REFERENCE))
def test_splitmix_vector_path_reference_stream(seed):
    ref = SPLITMIX_REFERENCE[seed]
    assert SplitMix64(seed).next_u64_array(5).tolist() == ref
    assert SplitMix64(seed).random_array(5).tolist() == [(x >> 11) * 2.0**-53 for x in ref]
    rng = SplitMix64(seed)
    parts = [rng.next_u64_array(2), rng.next_u64_array(0), rng.next_u64_array(3)]
    assert np.concatenate(parts).tolist() == ref


def test_splitmix_vector_path_matches_scalar():
    batch = SplitMix64(7).next_u64_array(64)
    rng = SplitMix64(7)
    assert [int(x) for x in batch] == [rng.next_u64() for _ in range(64)]

    doubles = SplitMix64(7).random_array(64)
    rng = SplitMix64(7)
    assert np.array_equal(doubles, np.array([rng.random() for _ in range(64)]))


def test_splitmix_batch_continues_stream():
    rng = SplitMix64(99)
    head = [rng.next_u64() for _ in range(3)]
    tail = rng.next_u64_array(5)
    assert head + [int(x) for x in tail] == [int(x) for x in SplitMix64(99).next_u64_array(8)]


def test_splitmix_repeat_runs_identical():
    a = SplitMix64(2024).random_array(1_000_000)
    b = SplitMix64(2024).random_array(1_000_000)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() < 1.0
    assert abs(a.mean() - 0.5) < 2e-3


def test_splitmix_uniform_and_spawn():
    assert SplitMix64(10).spawn(3).next_u64() == SplitMix64(13).next_u64()
    # spawned streams differ from the parent and from each other
    parent = SplitMix64(10).next_u64_array(4)
    child = SplitMix64(10).spawn(1).next_u64_array(4)
    assert not np.array_equal(parent, child)


def test_circular_distance_examples():
    assert circular_distance(0.1, 0.9) == pytest.approx(0.2)
    assert circular_distance(0.0, 0.5) == pytest.approx(0.5)
    assert circular_distance(0.25, 0.25) == 0.0
    # arguments are reduced mod 1
    assert circular_distance(1.25, 0.25) == pytest.approx(0.0, abs=1e-15)
    assert circular_distance(-0.1, 0.1) == pytest.approx(0.2)


def test_circular_distance_matches_array_form_bitwise():
    pairs = [(-0.1, 0.1), (-2.75, 0.3), (1.25, 0.25), (7.9, -3.4), (0.0, 0.5),
             (0.25, 0.75), (-0.25, 0.25), (-0.0, 0.0), (-0.0, 0.5), (0.3, -0.0)]
    for a, b in pairs:
        scalar = circular_distance(a, b)
        assert type(scalar) is float
        assert scalar.hex() == float(circular_distance_array(a, b)).hex()


def test_circular_distance_properties():
    rng = SplitMix64(11)
    a = rng.random_array(500) * 4 - 2
    b = rng.random_array(500) * 4 - 2
    dist = circular_distance_array(a, b)
    assert dist.min() >= 0.0 and dist.max() <= 0.5
    assert np.array_equal(dist, circular_distance_array(b, a))
    for i in range(0, 500, 37):
        assert dist[i] == circular_distance(float(a[i]), float(b[i]))


def test_symmetric_matrix_construction():
    raw = np.array([[1.0, 2.0], [0.0, 3.0]])
    mat = SymmetricMatrix(raw)
    assert np.array_equal(mat.entries, mat.entries.T)
    assert mat.entries[0, 1] == 1.0
    assert np.trace(mat.entries) == 4.0
    with pytest.raises(ValueError):
        SymmetricMatrix(np.zeros((2, 3)))


def test_jacobi_diagonal_and_identity():
    vals, vecs = jacobi_eigh(SymmetricMatrix(np.eye(4)))
    assert np.allclose(vals, 1.0)
    assert np.allclose(vecs @ vecs.T, np.eye(4), atol=1e-13)

    diag = np.diag([3.0, -1.0, 2.0])
    vals, vecs = jacobi_eigh(SymmetricMatrix(diag))
    assert np.allclose(vals, [-1.0, 2.0, 3.0])
    assert np.allclose(diag @ vecs, vecs @ np.diag(vals), atol=1e-12)

    for x in (0.0, 3.5, -2.0):
        vals, vecs = jacobi_eigh(SymmetricMatrix(np.array([[x]])))
        assert vals.tolist() == [x] and vecs.tolist() == [[1.0]]


def test_jacobi_2x2_analytic():
    a, b, c = 2.0, 0.7, -1.0
    mean, radius = (a + c) / 2.0, math.hypot((a - c) / 2.0, b)
    vals, _ = jacobi_eigh(SymmetricMatrix(np.array([[a, b], [b, c]])))
    assert vals == pytest.approx([mean - radius, mean + radius], rel=1e-14)


def test_jacobi_equal_diagonal_negative_coupling():
    # tau = (a_qq - a_pp) / (2 a_pq) is -0.0 here; it rotates like tau = +0.0.
    s = float.fromhex("0x1.6a09e667f3bccp-1")
    vals, vecs = jacobi_eigh(SymmetricMatrix(np.array([[0.5, -0.25], [-0.25, 0.5]])))
    assert vals.tolist() == [0.24999999999999994, 0.7499999999999999]
    assert vecs.tolist() == [[s, s], [s, -s]]


def test_jacobi_zero_matrix():
    vals, vecs = jacobi_eigh(SymmetricMatrix(np.zeros((5, 5))))
    assert np.array_equal(vals, np.zeros(5))
    assert np.array_equal(vecs, np.eye(5))


def test_jacobi_random_matrices():
    """Residuals, orthonormality, ordering, trace, and an independent
    LAPACK cross-check over a spread of sizes."""
    rng = np.random.default_rng(1234)
    sizes = [2] * 10 + [3] * 10 + [5] * 8 + [8] * 6 + [16] * 4 + [33, 64]
    for n in sizes:
        raw = rng.normal(size=(n, n)) * rng.choice([0.1, 1.0, 100.0])
        mat = SymmetricMatrix(raw)
        vals, vecs = jacobi_eigh(mat)
        scale = np.linalg.norm(mat.entries)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.linalg.norm(mat.entries @ vecs - vecs * vals) <= 1e-10 * scale
        assert np.linalg.norm(vecs.T @ vecs - np.eye(n)) <= 1e-12
        assert np.sum(vals) == pytest.approx(np.trace(mat.entries), rel=1e-12, abs=1e-12 * scale)
        assert np.max(np.abs(vals - np.linalg.eigvalsh(mat.entries))) <= 1e-10 * scale


@pytest.mark.parametrize("shift", [-900, -60, 60, 900])
def test_jacobi_is_exact_under_power_of_two_scaling(shift):
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 6))
    vals, vecs = jacobi_eigh(SymmetricMatrix(a))
    scaled_vals, scaled_vecs = jacobi_eigh(SymmetricMatrix(np.ldexp(a, shift)))
    assert np.array_equal(scaled_vals, np.ldexp(vals, shift))
    assert np.array_equal(scaled_vecs, vecs)


def test_jacobi_degenerate_spectrum():
    # repeated eigenvalues: projector onto a plane, eigenvalues {0, 0, 1, 1}
    basis = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))[0]
    proj = basis[:, :2] @ basis[:, :2].T
    vals, vecs = jacobi_eigh(SymmetricMatrix(proj))
    assert np.allclose(np.sort(vals), [0.0, 0.0, 1.0, 1.0], atol=1e-12)
    assert np.linalg.norm(proj @ vecs - vecs * vals) <= 1e-12


def test_jacobi_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(numerics, "JACOBI_MAX_SWEEPS", 1)
    raw = np.random.default_rng(5).normal(size=(12, 12))
    mat = SymmetricMatrix(raw)
    with pytest.raises(ConvergenceError, match="in 1 sweeps"):
        jacobi_eigh(mat)


def test_jacobi_dimension_cap():
    with pytest.raises(ValueError):
        jacobi_eigh(SymmetricMatrix(np.eye(1025)))
