import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tqft.calibration import error_budget
from tqft.numerics import circular_distance, jacobi_eigh
from tqft.qpe import phase_distributions
from tqft.tfim import (
    EncodedPhase,
    TfimSpec,
    build_hamiltonian,
    decode_phase,
    encode_phase,
    qpe_energy_experiment,
    spectrum,
)

# Lowest part of the benchmark spectrum (n=4, J=1, h=0.5, open ends),
# frozen at full precision from the dense in-house solver and cross-checked
# against LAPACK below.
LOWEST_FOUR = [-3.427034088908086, -3.3322465011650086,
               -1.8268383953119562, -1.7320508075688816]


def test_spec_validation():
    spec = TfimSpec(4)
    assert (spec.j, spec.h, spec.dim) == (1.0, 0.5, 16)
    with pytest.raises(ValueError):
        TfimSpec(1)
    assert TfimSpec(16).dim == 65536
    with pytest.raises(ValueError, match="capped at 16 sites"):
        TfimSpec(17)
    for j, h in ((math.nan, 0.5), (1.0, math.inf), (-math.inf, 0.5)):
        with pytest.raises(ValueError):
            TfimSpec(4, j, h)


def test_hamiltonian_two_site_matrix():
    j, h = 1.3, 0.4
    mat = build_hamiltonian(TfimSpec(2, j, h)).entries
    # basis index bit i = site i; aligned states (00, 11) sit at -J
    expected = np.array([
        [-j, -h, -h, 0.0],
        [-h, j, 0.0, -h],
        [-h, 0.0, j, -h],
        [0.0, -h, -h, -j],
    ])
    assert np.array_equal(mat, expected)


def test_hamiltonian_trace_and_symmetry():
    for n, j, h in [(2, 1.0, 0.5), (3, 2.0, 0.3), (5, 0.7, 1.3)]:
        mat = build_hamiltonian(TfimSpec(n, j, h))
        assert np.trace(mat.entries) == 0.0
        assert np.array_equal(mat.entries, mat.entries.T)


@pytest.mark.parametrize("j,h", [(1.0, 0.5), (2.0, 0.3), (0.7, 1.1)])
def test_two_site_spectrum_analytic(j, h):
    vals, _ = spectrum(TfimSpec(2, j, h))
    outer = math.sqrt(j * j + 4.0 * h * h)
    assert vals == pytest.approx(sorted([-outer, -j, j, outer]), rel=1e-12)


def test_dense_oracle_refuses_long_chains_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="capped at 8 sites"):
            build_hamiltonian(TfimSpec(9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # the 512 x 512 matrix alone would take 2 MiB


def test_benchmark_spectrum_reference():
    vals, modes = spectrum(TfimSpec(4, 1.0, 0.5))
    assert vals[:4] == pytest.approx(LOWEST_FOUR, rel=1e-12)
    assert len(modes) == 4 and np.all(np.diff(modes) >= 0.0)
    # the dense oracle's eigenpairs actually solve the problem
    dense = build_hamiltonian(TfimSpec(4, 1.0, 0.5))
    dense_vals, vecs = jacobi_eigh(dense)
    mat = dense.entries
    assert np.linalg.norm(mat @ vecs - vecs * dense_vals) < 1e-12 * np.linalg.norm(mat)
    assert dense_vals[:4] == pytest.approx(LOWEST_FOUR, rel=1e-12)


# Signs, zeros, and scales whose squares underflow or overflow a double.
ORACLE_COUPLINGS = [(1.0, 0.5), (1.1, 0.6), (-1.0, 0.5), (0.7, -1.3), (0.0, 1.0), (1.0, 0.0),
                    (0.0, 4e-267), (4e-267, 1.0), (1e200, 1e200), (1.0, 1.0), (2.0, 0.3),
                    (0.3, 2.0)]


def _assert_levels_match(spec, reference):
    vals, _ = spectrum(spec)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(vals - reference)) <= 1e-12 * scale


@pytest.mark.parametrize("j,h", ORACLE_COUPLINGS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_free_fermion_levels_match_dense_jacobi(n, j, h):
    spec = TfimSpec(n, j, h)
    _assert_levels_match(spec, jacobi_eigh(build_hamiltonian(spec))[0])


# Dense Jacobi takes 1-4 s per chain at 7 sites and 6-20 s at 8; LAPACK
# stands in for it there.
@pytest.mark.parametrize("j,h", ORACLE_COUPLINGS)
@pytest.mark.parametrize("n", [7, 8])
def test_free_fermion_levels_match_lapack_up_to_the_dense_cap(n, j, h):
    spec = TfimSpec(n, j, h)
    _assert_levels_match(spec, np.linalg.eigvalsh(build_hamiltonian(spec).entries))


_ANY_COUPLING = st.one_of(st.just(0.0), st.floats(-1e6, 1e6, allow_subnormal=False))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(2, 6), j=_ANY_COUPLING, h=_ANY_COUPLING)
def test_free_fermion_levels_property(n, j, h):
    assume(j != 0.0 or h != 0.0)
    spec = TfimSpec(n, j, h)
    _assert_levels_match(spec, np.linalg.eigvalsh(build_hamiltonian(spec).entries))


@pytest.mark.parametrize("j,h", ORACLE_COUPLINGS)
@pytest.mark.parametrize("n", [2, 5, 16])
def test_levels_are_exact_negatives_and_edges_encode_exactly(n, j, h):
    vals, _ = spectrum(TfimSpec(n, j, h))
    assert np.array_equal(vals, -vals[::-1])
    assert encode_phase(float(vals[0]), vals).phi == 0.25
    assert encode_phase(float(vals[-1]), vals).phi == 0.75


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_spectrum_against_lapack(n):
    spec = TfimSpec(n, 1.1, 0.6)
    vals, _ = spectrum(spec)
    reference = np.linalg.eigvalsh(build_hamiltonian(spec).entries)
    assert np.max(np.abs(vals - reference)) < 1e-10


@pytest.mark.parametrize("spec", [TfimSpec(2, 0.0, 4e-267), TfimSpec(2, 1e200, 1e200)],
                         ids=["tiny", "huge"])
def test_spectrum_against_lapack_at_extreme_scales(spec):
    """Couplings whose squares underflow or overflow a double."""
    vals, _ = spectrum(spec)
    reference = np.linalg.eigvalsh(build_hamiltonian(spec).entries)
    assert np.max(np.abs(vals - reference)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_spectrum_symmetric_about_zero(n):
    vals, _ = spectrum(TfimSpec(n, 1.0, 0.5))
    assert np.max(np.abs(vals + vals[::-1])) < 1e-12


def test_encode_decode_roundtrip():
    vals, _ = spectrum(TfimSpec(4, 1.0, 0.5))
    for energy in vals:
        encoded = encode_phase(float(energy), vals)
        assert 0.25 <= encoded.phi <= 0.75
        assert decode_phase(encoded) == pytest.approx(float(energy), abs=1e-12)
    # band edges: bottom at phase 1/4, top at 3/4
    bottom = encode_phase(float(vals[0]), vals)
    assert bottom.phi == 0.25
    top = encode_phase(float(vals[-1]), vals)
    assert top.phi == 0.75
    assert decode_phase(top) == pytest.approx(float(vals[-1]))


# The map is scale-free; couplings stay where the Frobenius norm that the
# dense solver reads neither underflows nor overflows.
_COUPLINGS = st.one_of(st.just(0.0), st.floats(1e-3, 4.0), st.floats(-4.0, -1e-3))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(n=st.integers(2, 6), j=_COUPLINGS, h=_COUPLINGS)
def test_energy_phase_map_inverts_and_survives_estimation(n, j, h):
    assume(j != 0.0 or h != 0.0)
    vals, _ = spectrum(TfimSpec(n, j, h))
    encoded = [encode_phase(float(energy), vals) for energy in vals]
    m = 8
    cell = 4.0 * encoded[0].e_scale * 2.0**-m  # one phase cell, in energy
    probs = phase_distributions(np.array([e.phi for e in encoded]), m, m)
    for energy, enc, row in zip(vals, encoded, probs):
        assert decode_phase(enc) == pytest.approx(float(energy), abs=1e-12)
        modal = replace(enc, phi=int(np.argmax(row)) / 2**m)
        assert abs(decode_phase(modal) - energy) <= cell


def test_encode_phase_errors():
    vals = np.array([-2.0, -1.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        encode_phase(3.0, vals)
    with pytest.raises(ValueError):
        encode_phase(0.0, np.array([]))
    with pytest.raises(ValueError):
        encode_phase(0.0, np.zeros(4))
    assert decode_phase(EncodedPhase(0.75, 2.0)) == pytest.approx(2.0)


def test_experiment_ground_state_is_on_grid():
    # spectrum symmetry parks the ground state at phase 1/4, so the estimate
    # is exact for every register of m >= 2 qubits -- and flagged as such
    result = qpe_energy_experiment(TfimSpec(4, 1.0, 0.5), m=8, d=5)
    assert result.on_grid
    assert result.phase_rmse < 1e-10
    assert result.estimated_energy == pytest.approx(result.true_energy, abs=1e-10)


def test_experiment_excited_state_reference():
    result = qpe_energy_experiment(TfimSpec(4, 1.0, 0.5), m=8, d=5, eigenstate_index=3)
    assert not result.on_grid
    assert result.phi == pytest.approx(0.37364797353673673, rel=1e-12)
    assert result.estimated_phase == 96.0 / 256.0
    assert result.phase_rmse == pytest.approx(0.032298423398811164, rel=1e-9)
    assert result.energy_rmse == pytest.approx(4.0 * result.e_scale * result.phase_rmse)
    assert result.estimated_energy == pytest.approx(
        (4.0 * result.estimated_phase - 2.0) * result.e_scale)
    # modal outcome is the nearest grid point
    assert circular_distance(result.estimated_phase, result.phi) <= 2.0**-8


def test_experiment_top_state_is_estimated_at_the_top():
    # the top of the symmetric band is +E_scale; it must not decode to -E_scale
    result = qpe_energy_experiment(TfimSpec(4), m=8, eigenstate_index=15)
    assert result.true_energy == pytest.approx(3.4270340889080906, rel=1e-12)
    cell = 4.0 * result.e_scale * 2.0**-8
    assert abs(result.estimated_energy - result.true_energy) <= cell


def test_experiment_modal_estimate_stays_near_truth():
    for index in (1, 2, 3):
        for m, d in [(6, 6), (8, 4), (10, 5)]:
            result = qpe_energy_experiment(TfimSpec(4, 1.0, 0.5), m=m, d=d,
                                           eigenstate_index=index)
            assert circular_distance(result.estimated_phase, result.phi) <= 2.0**-m


def test_experiment_attaches_matching_budget():
    result = qpe_energy_experiment(TfimSpec(4, 1.0, 0.5), m=8, d=5,
                                   eps_2q=1e-3, c=0.04, eigenstate_index=2)
    assert result.budget == error_budget(8, 5, 1e-3, 0.04)
    full = qpe_energy_experiment(TfimSpec(4, 1.0, 0.5), m=8, d=None, eps_2q=1e-3)
    assert full.depth == 8
    assert full.budget == error_budget(8, 8, 1e-3)


def test_experiment_sampled_mode():
    result = qpe_energy_experiment(TfimSpec(4, 1.0, 0.5), m=8, d=5,
                                   eigenstate_index=3, shots=10_000, seed=7)
    assert result.shots == 10_000
    assert result.sampled_phase_rmse == pytest.approx(0.032950626098495576, rel=1e-9)
    # finite-sample estimate sits near the exact-distribution value
    assert result.sampled_phase_rmse == pytest.approx(result.phase_rmse, rel=0.25)
    again = qpe_energy_experiment(TfimSpec(4, 1.0, 0.5), m=8, d=5,
                                  eigenstate_index=3, shots=10_000, seed=7)
    assert again.sampled_phase_rmse == result.sampled_phase_rmse
    assert again.estimated_phase == result.estimated_phase


def test_experiment_validation():
    with pytest.raises(ValueError):
        qpe_energy_experiment(TfimSpec(4), m=8, d=None, eigenstate_index=16)
    with pytest.raises(ValueError):
        qpe_energy_experiment(TfimSpec(4), m=8, d=None, shots=0)
    with pytest.raises(ValueError):
        qpe_energy_experiment(TfimSpec(4), m=8, d=9)


def test_tiny_coupling_spectrum_is_warning_free():
    # tau * tau overflows at J = 4e-267; the rotation then takes its t = 0 limit.
    spec = TfimSpec(6, 4e-267, 1.0)
    vals, _ = spectrum(spec)
    ref = np.linalg.eigvalsh(build_hamiltonian(spec).entries)
    assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))
