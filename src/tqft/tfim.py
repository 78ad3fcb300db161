"""Transverse-field Ising benchmark for phase-estimation accuracy.

The open chain

    H = -J * sum_i Z_i Z_{i+1} - h * sum_i X_i

maps to free fermions by a Jordan-Wigner transformation (Lieb, Schultz &
Mattis 1961; Pfeuty 1970): H = sum_k eps_k (n_k - 1/2), where the mode
energies eps_k are the singular values of the n x n bidiagonal matrix
A = 2h*I - 2J*(superdiagonal). `spectrum` takes them from the in-house
Jacobi solver on the 2n x 2n symmetric matrix [[0, A], [A^T, 0]], whose
eigenvalues are +-eps_k, and builds the 2^n levels sum_k +-eps_k/2 by
doubling. The dense 2^n x 2^n Hamiltonian (`build_hamiltonian`, site i is
bit i of the basis index, Z|0> = +|0>) remains as the test oracle.

Each eigenvalue maps onto the phase 1/2 + E / (4 * E_scale), E_scale =
max |E_i|. An experiment then scores how well depth-d phase estimation
recovers an eigenvalue, pairing the simulated error with the analytic
budget.

The band [-E_scale, E_scale] lands on [1/4, 3/4], so the map is injective
and an estimate less than a quarter turn off decodes without wrapping. The
doubling gives each level an exact negative, so the spectrum is bitwise
symmetric: the ground state sits at exactly 1/4 and the top at exactly
3/4, both on-grid for m >= 2. Results carry an ``on_grid`` flag so that
0-RMSE rows are never mistaken for a generic accuracy claim; benchmarks
that need a generic target use an off-grid excited state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .calibration import DEFAULT_NOISE_CONSTANT, ErrorBudget, error_budget
from .numerics import (SplitMix64, SymmetricMatrix, circular_distance,
                       circular_distance_array, jacobi_eigh)
from .qpe import phase_distribution, sample_outcomes

GRID_TOL = 1e-12  # circular distance below which a phase counts as on-grid

# spectrum(TfimSpec(16)) takes 0.06 s and 0.5 MiB of levels on a 2-vCPU Xeon
# (Python 3.11, numpy 2.4); the level count doubles per site.
MAX_SITES = 16


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
        if self.n > MAX_SITES:
            raise ValueError(f"the chain is capped at {MAX_SITES} sites ({1 << MAX_SITES} "
                             f"levels), which fits a 1 s budget for a spectrum or a "
                             f"trial (tfim --n 16 --m 12: about 0.1 s), got {self.n}")

    @property
    def dim(self) -> int:
        return 1 << self.n


def build_hamiltonian(spec: TfimSpec) -> SymmetricMatrix:
    """Dense matrix of the chain Hamiltonian: the oracle for `spectrum`.

    ZZ terms are diagonal: each basis state contributes -J * z_i * z_{i+1}
    with z_i = +1 for bit 0 and -1 for bit 1. The field term couples every
    pair of states differing in one bit with amplitude -h. The ZZ diagonal
    sums to zero over the basis, so the trace is exactly 0.
    """
    if spec.n > 8:  # the matrix takes 0.5 MiB at 8 sites and 32 GiB at 16
        raise ValueError(f"the dense Hamiltonian is capped at 8 sites, got {spec.n}")
    dim = spec.dim
    states = np.arange(dim, dtype=np.int64)
    z = 1.0 - 2.0 * ((states[:, None] >> np.arange(spec.n)) & 1)  # (dim, n)
    diag = -spec.j * np.sum(z[:, :-1] * z[:, 1:], axis=1)
    entries = np.diag(diag)
    for site in range(spec.n):
        flipped = states ^ (1 << site)
        entries[states, flipped] -= spec.h
    return SymmetricMatrix(entries)


def spectrum(spec: TfimSpec) -> tuple[np.ndarray, np.ndarray]:
    """The 2^n levels (ascending) and the n mode energies eps_k (ascending).

    The eps_k are the singular values of A, read from the +-eps_k spectrum
    of [[0, A], [A^T, 0]]; forming A^T A instead would square a near-zero
    edge mode and lose half its digits. Each level and its complement are
    built from the same sums with opposite signs, so they are exact
    negatives.
    """
    n = spec.n
    a = 2.0 * spec.h * np.eye(n) - 2.0 * spec.j * np.eye(n, k=1)
    zero = np.zeros((n, n))
    signed, _ = jacobi_eigh(SymmetricMatrix(np.block([[zero, a], [a.T, zero]])))
    modes = (signed[n:] - signed[n - 1::-1]) / 2.0
    levels = np.zeros(1)
    for eps in modes:
        levels = np.concatenate([levels - eps / 2.0, levels + eps / 2.0])
    return np.sort(levels, kind="stable"), modes


_SCALES_PER_TURN = 4.0  # energy per turn of phase, in units of E_scale


@dataclass(frozen=True)
class EncodedPhase:
    """An eigenvalue mapped to the phase 1/2 + E / (4 * E_scale) in [1/4, 3/4]."""

    phi: float
    e_scale: float


def encode_phase(energy: float, eigenvalues: np.ndarray) -> EncodedPhase:
    """Map energy to phase 1/2 + E / (4 * E_scale), E_scale = max |E_i|."""
    if len(eigenvalues) == 0:
        raise ValueError("cannot encode against an empty spectrum")
    e_scale = float(np.max(np.abs(eigenvalues)))
    if e_scale == 0.0:
        raise ValueError("spectrum is identically zero; phase encoding is undefined")
    if abs(energy) > e_scale:
        raise ValueError(f"energy {energy} lies outside [-E_scale, E_scale] = "
                         f"[{-e_scale}, {e_scale}]")
    return EncodedPhase(0.5 + energy / (_SCALES_PER_TURN * e_scale), e_scale)


def decode_phase(encoded: EncodedPhase) -> float:
    """Invert the map for any phase: E = (phi - 1/2) * 4 * E_scale."""
    return (encoded.phi - 0.5) * _SCALES_PER_TURN * encoded.e_scale


@dataclass(frozen=True)
class QpeEnergyResult:
    """One phase-estimation accuracy trial against a chain eigenvalue.

    The simulated figures (estimate and RMSE over the exact outcome
    distribution) sit next to the analytic three-term budget evaluated at
    the same register size, depth, and error rate; `energy_rmse` is the
    phase RMSE scaled by the 4*E_scale slope of `decode_phase`. With shots
    set, `sampled_phase_rmse` adds the finite-sample counterpart.
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

    Noiseless simulation by the product formula: the exact outcome
    distribution gives the modal estimate and the phase RMSE; the returned
    budget models the same configuration including hardware noise at
    `eps_2q`. ``d=None`` runs the full-depth circuit.
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

    deviations = circular_distance_array(dist.outcomes(), encoded.phi)
    phase_rmse = float(np.sqrt(np.sum(dist.probs * deviations**2)))

    weights, sampled_rmse = dist.probs, None
    if shots is not None:
        outcomes = sample_outcomes(dist, shots, SplitMix64(seed))
        weights = np.bincount(outcomes, minlength=dist.dim)
        sampled_rmse = float(np.sqrt(np.mean(deviations[outcomes] ** 2)))
    estimated_phase = int(np.argmax(weights)) / dist.dim

    return QpeEnergyResult(
        m=m, depth=depth, eigenstate_index=eigenstate_index,
        true_energy=energy, e_scale=encoded.e_scale, phi=encoded.phi,
        on_grid=on_grid, estimated_phase=estimated_phase,
        estimated_energy=decode_phase(replace(encoded, phi=estimated_phase)),
        phase_rmse=phase_rmse,
        energy_rmse=_SCALES_PER_TURN * encoded.e_scale * phase_rmse,
        budget=error_budget(m, depth, eps_2q, c),
        shots=shots, sampled_phase_rmse=sampled_rmse,
    )
