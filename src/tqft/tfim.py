"""Transverse-field Ising benchmark for phase-estimation accuracy.

The open chain

    H = -J * sum_i Z_i Z_{i+1} - h * sum_i X_i

maps to free fermions by a Jordan-Wigner transformation (Lieb, Schultz &
Mattis 1961; Pfeuty 1970): H = sum_k eps_k (n_k - 1/2), where the mode
energies eps_k are the singular values of the n x n bidiagonal matrix
A = 2h*I - 2J*(superdiagonal). `spectrum` takes them from LAPACK's
bidiagonal singular value solver (dqds, to high relative accuracy) and
builds the 2^n levels sum_k +-eps_k/2 by doubling. The dense 2^n x 2^n
Hamiltonian (`build_hamiltonian`, site i is bit i of the basis index,
Z|0> = +|0>) remains as the test oracle.

Each eigenvalue maps onto the phase 1/2 + E / (4 * E_scale), where
E_scale = max |E_i| comes from `spectrum` alongside the levels. An
experiment then scores how well depth-d phase estimation recovers an
eigenvalue, pairing the simulated error with the analytic budget.

The band [-E_scale, E_scale] lands on [1/4, 3/4], so the map is injective
and an estimate less than a quarter turn off decodes without wrapping. The
doubling gives each level an exact negative, so the spectrum is bitwise
symmetric: the ground state sits at exactly 1/4 and the top at exactly
3/4, both on-grid for m >= 2. Results carry an ``on_grid`` flag so that
0-RMSE rows are never mistaken for a generic accuracy claim; benchmarks
that need a generic target use an off-grid excited state.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .calibration import DEFAULT_NOISE_CONSTANT, ErrorBudget, error_budget
from .circuits import check_depth, check_int
# jacobi_eigh is not called here: it is the layer boundary that the
# benchmark's tracer patches in this module (perfbench/tracing.py).
from .numerics import SplitMix64, circular_distance, circular_distance_array, jacobi_eigh
from .qpe import phase_distribution, sample_outcomes

GRID_TOL = 1e-12  # circular distance below which a phase counts as on-grid

# spectrum(TfimSpec(16)) takes 4 ms and 0.5 MiB of levels, and a
# `tfim --n 16 --m 12` trial 5 ms in-process, on a 2-vCPU Xeon (Python 3.11,
# numpy 2.4); the level count, and most of that time, doubles per site.
MAX_SITES = 16

# Largest n * (|J| + |h|). It bounds E_scale, so the bidiagonal A (entries
# 2|J| and 2|h|), E_scale and the 4 * E_scale of the phase map all stay
# finite.
MAX_ENERGY = 2.0**1000


class TfimSpec(NamedTuple("TfimSpec", [("n", int), ("j", float), ("h", float)])):
    """Open transverse-field Ising chain: n sites, coupling J, field h."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, n: int, j: float = 1.0, h: float = 0.5):
        n = check_int("site count n", n, 2)
        if not np.isfinite([j, h]).all():
            raise ValueError(f"coupling and field must be finite, got J={j}, h={h}")
        if n > MAX_SITES:
            raise ValueError(f"the chain is capped at {MAX_SITES} sites ({1 << MAX_SITES} "
                             f"levels), which fits a 1 s budget for a spectrum or a "
                             f"trial (tfim --n 16 --m 12: about 5 ms), got {n}")
        # Python floats, so a sum past the float limit is inf, without a warning.
        energy = n * (abs(float(j)) + abs(float(h)))
        if not energy <= MAX_ENERGY:
            raise ValueError(f"n*(|J|+|h|) is capped at 2^1000 so that the energy scale "
                             f"stays finite, got {energy} (n={n}, J={j}, h={h})")
        return super().__new__(cls, n, j, h)

    @property
    def dim(self) -> int:
        return 1 << self.n


def build_hamiltonian(spec: TfimSpec) -> np.ndarray:
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
    return entries


def _mode_energies(spec: TfimSpec) -> np.ndarray:
    """The singular values eps_k of the upper bidiagonal A, ascending.

    numpy's svd is LAPACK dgesdd. Without vectors it reduces A to
    bidiagonal form, which for an A already bidiagonal applies identity
    reflectors and changes no entry, and hands it to dqds (dbdsdc ->
    dlasdq -> dbdsqr -> dlasq1). Small relative changes to the entries of
    a bidiagonal matrix move each singular value by a small relative amount
    (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11, 873, 1990), and each
    dqds step is such a change (Fernando & Parlett, Numer. Math. 67, 191,
    1994). So every eps_k comes out within a few ulp of itself, down to the
    ordered-phase edge mode of about (h/J)^n, which a solver of
    [[0, A], [A^T, 0]] resolves only to the ulps of the largest mode. The
    power-of-two prescale is exact and keeps LAPACK's squares away from
    underflow and overflow. A solver failure is raised as ArithmeticError:
    it is a numerical failure, and LinAlgError is a ValueError, which the
    CLI reports as a usage error.
    """
    n = spec.n
    a = 2.0 * spec.h * np.eye(n) - 2.0 * spec.j * np.eye(n, k=1)
    exponent = int(np.frexp(np.abs(a).max())[1])
    try:
        eps = np.linalg.svd(np.ldexp(a, -exponent), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"mode energies of {spec}: {exc}") from exc
    return np.ldexp(eps[::-1], exponent)


def spectrum(spec: TfimSpec) -> tuple[np.ndarray, float]:
    """The 2^n levels (ascending) and the energy scale E_scale = max |E|.

    Each level and its complement are built from the same sums of +-eps_k/2
    with opposite signs, so they are exact negatives and E_scale is both
    the top level and minus the ground level.
    """
    levels = np.zeros(1)
    for eps in _mode_energies(spec):
        levels = np.concatenate([levels - eps / 2.0, levels + eps / 2.0])
    return np.sort(levels, kind="stable"), float(np.max(np.abs(levels)))


_SCALES_PER_TURN = 4.0  # energy per turn of phase, in units of E_scale


def encode_phase(energy: float, e_scale: float) -> float:
    """Map an energy in [-E_scale, E_scale] to the phase 1/2 + E / (4 * E_scale)."""
    if e_scale == 0.0:
        raise ValueError("spectrum is identically zero; phase encoding is undefined")
    if abs(energy) > e_scale:
        raise ValueError(f"energy {energy} lies outside [-E_scale, E_scale] = "
                         f"[{-e_scale}, {e_scale}]")
    return 0.5 + energy / (_SCALES_PER_TURN * e_scale)


def decode_phase(phi: float, e_scale: float) -> float:
    """Invert the map for any phase: E = (phi - 1/2) * 4 * E_scale."""
    return (phi - 0.5) * _SCALES_PER_TURN * e_scale


class QpeEnergyResult(NamedTuple):
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
    m, depth = check_depth(m, m if d is None else d)
    levels, e_scale = spectrum(spec)
    eigenstate_index = check_int("eigenstate index", eigenstate_index, 0, len(levels) - 1)
    energy = float(levels[eigenstate_index])
    phi = encode_phase(energy, e_scale)

    dist = phase_distribution(phi, m, depth)
    grid = np.round(phi * dist.dim) / dist.dim
    on_grid = circular_distance(phi, float(grid)) < GRID_TOL

    deviations = circular_distance_array(dist.outcomes(), phi)
    phase_rmse = float(np.sqrt(np.sum(dist.probs * deviations**2)))

    weights, sampled_rmse = dist.probs, None
    if shots is not None:
        outcomes = sample_outcomes(dist, shots, SplitMix64(seed))
        weights = np.bincount(outcomes, minlength=dist.dim)
        sampled_rmse = float(np.sqrt(np.mean(deviations[outcomes] ** 2)))
    estimated_phase = int(np.argmax(weights)) / dist.dim

    return QpeEnergyResult(
        m=m, depth=depth, eigenstate_index=eigenstate_index,
        true_energy=energy, e_scale=e_scale, phi=phi,
        on_grid=on_grid, estimated_phase=estimated_phase,
        estimated_energy=decode_phase(estimated_phase, e_scale),
        phase_rmse=phase_rmse, energy_rmse=_SCALES_PER_TURN * e_scale * phase_rmse,
        budget=error_budget(m, depth, eps_2q, c),
        shots=shots, sampled_phase_rmse=sampled_rmse,
    )
