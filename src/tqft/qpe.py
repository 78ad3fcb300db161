"""Exact phase-estimation outcome distributions and their distances.

The protocol simulated here: prepare the phase-kickback state
(1/sqrt(N)) * sum_j exp(2*pi*i*j*phi) |j>, apply the adjoint of a full or
truncated QFT plan, and read out the outcome probabilities directly from
the amplitudes. No sampling happens during circuit execution; shot noise
is a separate, optional layer on top of the exact distribution.

Batch variants evaluate many phases at once on a (phases, 2^m) amplitude
array, which is what makes dense truncation-error scans cheap.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .circuits import apply_plan_to_array, plan_truncated_qft
from .numerics import SplitMix64, circular_distance_array

logger = logging.getLogger(__name__)

DIST_MAX_QUBITS = 20  # distribution experiments stay desk-scale
SCAN_MAX_QUBITS = 12  # dense per-phase scans (max_tvd) get a tighter cap

# Probability that phase estimation lands within one grid cell of the true
# phase, in the worst case: 8/pi^2.
SUCCESS_FLOOR = 8.0 / math.pi**2


@dataclass(frozen=True)
class PhaseDistribution:
    """Probability mass over the 2^m measurement outcomes."""

    m: int
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.ascontiguousarray(self.probs, dtype=np.float64)
        if p.shape != (1 << self.m,):
            raise ValueError(f"expected {1 << self.m} outcome probabilities, got {p.shape}")
        if p.min() < 0.0 or p.max() > 1.0 + 1e-12:
            raise ValueError("probabilities outside [0, 1]")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def dim(self) -> int:
        return 1 << self.m

    def outcomes(self) -> np.ndarray:
        """Outcome phases y/N for y = 0..N-1."""
        return np.arange(1 << self.m) / (1 << self.m)


def _normalize_phase(phi: float) -> float:
    if not 0.0 <= phi < 1.0:
        logger.info("phase %r outside [0, 1); reducing modulo 1", phi)
        phi %= 1.0
    return phi


def _kickback_batch(phis: np.ndarray, m: int) -> np.ndarray:
    n = 1 << m
    return np.exp(2j * np.pi * np.outer(phis % 1.0, np.arange(n))) / math.sqrt(n)


def phase_distribution(phi: float, m: int, d: int) -> PhaseDistribution:
    """Measurement distribution after the adjoint depth-d plan (d = m: full QFT)."""
    probs = phase_distributions(np.array([float(phi)]), m, d)[0]
    return PhaseDistribution(m, probs)


def phase_distributions(phis: np.ndarray, m: int, d: int) -> np.ndarray:
    """Outcome probabilities for many eigenphases at once; rows sum to 1.

    Chunks the phase batch to bound peak memory.
    """
    if m > DIST_MAX_QUBITS:
        raise ValueError(f"distribution experiments are limited to m <= {DIST_MAX_QUBITS}")
    plan = plan_truncated_qft(m, d)
    phis = np.asarray(phis, dtype=np.float64)
    n = 1 << m
    out = np.empty((len(phis), n))
    chunk = max(1, (1 << 22) // n)
    for start in range(0, len(phis), chunk):
        amps = _kickback_batch(phis[start:start + chunk], m)
        apply_plan_to_array(amps, plan, inverse=True)
        np.square(np.abs(amps), out=out[start:start + chunk])
    return out


def closed_form_full_distribution(phi: float, m: int) -> PhaseDistribution:
    """Full-QFT outcome distribution from the squared Dirichlet kernel.

    probs[y] = sin^2(pi*N*delta) / (N^2 sin^2(pi*delta)) with
    delta = phi - y/N, and the 0/0 limit 1 at delta = 0. Independent of the
    circuit path; serves as its test oracle.
    """
    if m > DIST_MAX_QUBITS:
        raise ValueError(f"closed-form kernel is limited to m <= {DIST_MAX_QUBITS}")
    phi = _normalize_phase(phi)
    n = 1 << m
    delta = phi - np.arange(n) / n
    denom = n * np.sin(np.pi * delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = (np.sin(np.pi * n * delta) / denom) ** 2
    probs[delta == 0.0] = 1.0
    return PhaseDistribution(m, probs)


def tvd(p: PhaseDistribution, q: PhaseDistribution) -> float:
    """Total variation distance (1/2) * sum |p - q|, in [0, 1]."""
    if p.m != q.m:
        raise ValueError(f"distributions have different register sizes ({p.m} vs {q.m})")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def _tvd_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return 0.5 * np.abs(p - q).sum(axis=-1)


def random_phases(count: int, seed: int) -> np.ndarray:
    """`count` phases drawn uniformly from [0, 1) with the package PRNG."""
    if count < 1:
        raise ValueError(f"phase count must be >= 1, got {count}")
    return SplitMix64(seed).random_array(count)


def grid_phases(points: int) -> np.ndarray:
    """Uniform grid 0, 1/points, ..., (points-1)/points."""
    if points < 1:
        raise ValueError(f"grid must hold >= 1 points, got {points}")
    return np.arange(points) / points


def default_phase_sample(seed: int = 42, count: int = 500, grid: int = 4096) -> np.ndarray:
    """Union of seeded random phases and a uniform grid.

    Random-only sampling makes the observed maximum depend on the
    generator; the grid pins it down for reproducible acceptance checks.
    """
    return np.concatenate([random_phases(count, seed), grid_phases(grid)])


def max_tvd(m: int, d: int, phases: np.ndarray | None = None,
            seed: int = 42) -> tuple[float, float]:
    """Largest TVD between full and depth-d outcome distributions over a sample.

    Returns (max value, argmax phase). With phases=None the default
    random-plus-grid sample is scanned.
    """
    if m > SCAN_MAX_QUBITS:
        raise ValueError(f"dense TVD scans are limited to m <= {SCAN_MAX_QUBITS}")
    if phases is None:
        phases = default_phase_sample(seed)
    phases = np.asarray(phases, dtype=np.float64)
    if phases.size == 0:
        raise ValueError("empty phase sample")
    full = phase_distributions(phases, m, m)
    trunc = phase_distributions(phases, m, d)
    tv = _tvd_rows(full, trunc)
    best = int(np.argmax(tv))
    return float(tv[best]), float(phases[best])


def _success_mask(phis: np.ndarray, m: int) -> np.ndarray:
    """Boolean (phases, N) mask of outcomes within circular distance 2^-m."""
    outcomes = np.arange(1 << m) / (1 << m)
    dist = circular_distance_array(phis[:, None], outcomes[None, :])
    return dist <= 2.0**-m


def success_probability(phi: float, m: int, d: int, shots: int | None = None,
                        seed: int = 0) -> float:
    """Probability that the estimate lands within 2^-m (circular) of phi.

    Exact mode (shots=None) sums the outcome distribution over the success
    window. Sampled mode draws `shots` outcomes and reports the success
    fraction, which fluctuates binomially around the exact value.
    """
    phi = _normalize_phase(phi)
    dist = phase_distribution(phi, m, d)
    mask = _success_mask(np.array([phi]), m)[0]
    if shots is None:
        return float(dist.probs[mask].sum())
    outcomes = sample_outcomes(dist, shots, SplitMix64(seed))
    return float(mask[outcomes].mean())


def mean_success_probability(phis: np.ndarray, m: int, d: int) -> float:
    """Exact success probability averaged over a phase sample."""
    phis = np.asarray(phis, dtype=np.float64) % 1.0
    dists = phase_distributions(phis, m, d)
    mask = _success_mask(phis, m)
    return float(np.where(mask, dists, 0.0).sum(axis=1).mean())


def sample_outcomes(dist: PhaseDistribution, shots: int, rng: SplitMix64) -> np.ndarray:
    """Draw measurement outcomes by inverting the cumulative distribution."""
    if shots < 1:
        raise ValueError(f"shot count must be >= 1, got {shots}")
    cdf = np.cumsum(dist.probs)
    u = rng.random_array(shots)
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
