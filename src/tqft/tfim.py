"""Transverse-field Ising benchmark for phase-estimation accuracy.

Builds the open-chain Hamiltonian

    H = -J * sum_i Z_i Z_{i+1} - h * sum_i X_i

as a dense real symmetric matrix (site i is bit i of the basis index,
Z|0> = +|0>), diagonalizes it with the in-house Jacobi solver, and maps
eigenvalues onto phases via an affine rescale into [0, 1). A driver then
scores how well depth-d phase estimation recovers an eigenvalue, pairing
the simulated error with the analytic budget for the same settings.

The spectrum of the open chain is symmetric about zero, so the rescale
sends the ground state exactly to phase 0 -- an on-grid value every
register size estimates perfectly. Results carry an ``on_grid`` flag so
that 0-RMSE rows are never mistaken for a generic accuracy claim;
benchmarks that need a generic target use an off-grid excited state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import DEFAULT_NOISE_CONSTANT, ErrorBudget, error_budget
from .numerics import (SplitMix64, SymmetricMatrix, circular_distance,
                       circular_distance_array, jacobi_eigh)
from .qpe import phase_distribution, sample_outcomes

GRID_TOL = 1e-12  # circular distance below which a phase counts as on-grid


@dataclass(frozen=True)
class TfimSpec:
    """Open transverse-field Ising chain: n sites, coupling J, field h."""

    n: int
    j: float = 1.0
    h: float = 0.5

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"chain needs at least 2 sites, got {self.n}")
        if not np.isfinite([self.j, self.h]).all():
            raise ValueError(f"coupling and field must be finite, got J={self.j}, h={self.h}")
        if self.n > 8:
            # Jacobi on the dense 2^n matrix grows about 6x per site: 9.1 s at
            # n = 8 and 63 s at n = 9 on a 2-vCPU Xeon (Python 3.11, numpy 2.4).
            raise ValueError(f"dense diagonalization is capped at 8 sites, which fits a "
                             f"30 s budget (9 sites take about 60 s), got {self.n}")

    @property
    def dim(self) -> int:
        return 1 << self.n


def build_hamiltonian(spec: TfimSpec) -> SymmetricMatrix:
    """Dense matrix of the chain Hamiltonian.

    ZZ terms are diagonal: each basis state contributes -J * z_i * z_{i+1}
    with z_i = +1 for bit 0 and -1 for bit 1. The field term couples every
    pair of states differing in one bit with amplitude -h. The ZZ diagonal
    sums to zero over the basis, so the trace is exactly 0.
    """
    dim = spec.dim
    states = np.arange(dim, dtype=np.int64)
    z = 1.0 - 2.0 * ((states[:, None] >> np.arange(spec.n)) & 1)  # (dim, n)
    diag = -spec.j * np.sum(z[:, :-1] * z[:, 1:], axis=1)
    entries = np.diag(diag)
    for site in range(spec.n):
        flipped = states ^ (1 << site)
        entries[states, flipped] -= spec.h
    return SymmetricMatrix.from_array(entries)


def spectrum(spec: TfimSpec) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""
    return jacobi_eigh(build_hamiltonian(spec))


@dataclass(frozen=True)
class EncodedPhase:
    """An eigenvalue rescaled into [0, 1) for phase estimation.

    `wrapped` marks the single boundary case E = +E_scale, whose nominal
    phase 1.0 wraps to 0.0 and would otherwise decode to -E_scale.
    """

    phi: float
    e_scale: float
    wrapped: bool = False


def encode_phase(energy: float, eigenvalues: np.ndarray) -> EncodedPhase:
    """Map energy to phase (E + E_scale) / (2 * E_scale), E_scale = max |E_i|."""
    if len(eigenvalues) == 0:
        raise ValueError("cannot encode against an empty spectrum")
    e_scale = float(np.max(np.abs(eigenvalues)))
    if e_scale == 0.0:
        raise ValueError("spectrum is identically zero; phase encoding is undefined")
    if abs(energy) > e_scale:
        raise ValueError(f"energy {energy} lies outside [-E_scale, E_scale] = "
                         f"[{-e_scale}, {e_scale}]")
    phi = (energy + e_scale) / (2.0 * e_scale)
    if phi >= 1.0:
        return EncodedPhase(0.0, e_scale, wrapped=True)
    return EncodedPhase(phi, e_scale)


def decode_phase(encoded: EncodedPhase) -> float:
    """Invert the rescale; the wrapped top-of-band case decodes to +E_scale."""
    if encoded.wrapped:
        return encoded.e_scale
    return (2.0 * encoded.phi - 1.0) * encoded.e_scale


@dataclass(frozen=True)
class QpeEnergyResult:
    """One phase-estimation accuracy trial against a chain eigenvalue.

    The simulated figures (estimate and RMSE over the exact outcome
    distribution) sit next to the analytic three-term budget evaluated at
    the same register size, depth, and error rate; `energy_rmse` is the
    phase RMSE scaled by the 2*E_scale decoding slope. With shots set,
    `sampled_phase_rmse` adds the finite-sample counterpart.
    """

    m: int
    depth: int
    eigenstate_index: int
    true_energy: float
    e_scale: float
    phi: float
    on_grid: bool
    estimated_phase: float
    estimated_energy: float
    phase_rmse: float
    energy_rmse: float
    budget: ErrorBudget
    shots: int | None = None
    sampled_phase_rmse: float | None = None


def qpe_energy_experiment(spec: TfimSpec, m: int, d: int | None = None,
                          eps_2q: float = 0.0, c: float = DEFAULT_NOISE_CONSTANT,
                          eigenstate_index: int = 0, shots: int | None = None,
                          seed: int = 0) -> QpeEnergyResult:
    """Estimate one chain eigenvalue with an m-qubit, depth-d readout.

    Noiseless statevector simulation: the exact outcome distribution gives
    the modal estimate and the phase RMSE; the returned budget models the
    same configuration including hardware noise at `eps_2q`. ``d=None``
    runs the full-depth circuit.
    """
    eigenvalues, _ = spectrum(spec)
    if not 0 <= eigenstate_index < len(eigenvalues):
        raise ValueError(f"eigenstate index {eigenstate_index} outside "
                         f"0..{len(eigenvalues) - 1}")
    energy = float(eigenvalues[eigenstate_index])
    encoded = encode_phase(energy, eigenvalues)
    depth = m if d is None else d

    dist = phase_distribution(encoded.phi, m, depth)
    grid = np.round(encoded.phi * dist.dim) / dist.dim
    on_grid = circular_distance(encoded.phi, float(grid)) < GRID_TOL

    modal = int(np.argmax(dist.probs))
    estimated_phase = modal / dist.dim
    deviations = circular_distance_array(dist.outcomes(), encoded.phi)
    phase_rmse = float(np.sqrt(np.sum(dist.probs * deviations**2)))

    sampled_rmse = None
    if shots is not None:
        outcomes = sample_outcomes(dist, shots, SplitMix64(seed))
        counts = np.bincount(outcomes, minlength=dist.dim)
        modal = int(np.argmax(counts))
        estimated_phase = modal / dist.dim
        sampled_rmse = float(np.sqrt(np.mean(deviations[outcomes] ** 2)))

    estimated_energy = (2.0 * estimated_phase - 1.0) * encoded.e_scale
    return QpeEnergyResult(
        m=m, depth=depth, eigenstate_index=eigenstate_index,
        true_energy=energy, e_scale=encoded.e_scale, phi=encoded.phi,
        on_grid=on_grid, estimated_phase=estimated_phase,
        estimated_energy=estimated_energy, phase_rmse=phase_rmse,
        energy_rmse=2.0 * encoded.e_scale * phase_rmse,
        budget=error_budget(m, depth, eps_2q, c),
        shots=shots, sampled_phase_rmse=sampled_rmse,
    )
