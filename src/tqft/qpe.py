"""Exact phase-estimation outcome distributions and their distances.

The protocol simulated here: prepare the phase-kickback state
(1/sqrt(N)) * sum_x exp(2*pi*i*x*phi) |x>, apply the adjoint of the full
or depth-d truncated QFT plan, and measure. No sampling happens during
circuit execution; shot noise is a separate, optional layer on top of the
exact distribution.

The kickback state is a product state and every controlled phase of the
adjoint plan is controlled by a qubit that is already final, so the
outcome distribution factorizes exactly (the semiclassical QFT of
Griffiths & Niu, PRL 76, 3228, 1996). With y_0 the most significant bit
of the outcome y:

    P(y | phi) = prod_j cos^2(pi * (frac(2^j phi) - sum_{k=1}^{min(d, m-j)} y_{j+k-1} / 2^k))

phase_distributions evaluates it for a batch of phases at O(2^m) real
multiplies per phase, and is the one owner of the phase-array checks
(non-empty, finite). Every quantity is read from its rows: max_tvd reduces
two tables, and mean_success_probability sums (or samples, with shots) the
success window of one. The gate-by-gate statevector simulation of the plan
(_statevector_distributions) is kept as its test oracle, next to the
closed-form full-depth kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuits import apply_plan_to_array, plan_truncated_qft
from .numerics import SplitMix64, circular_distance_array

DIST_MAX_QUBITS = 20  # distribution experiments stay desk-scale
SCAN_MAX_QUBITS = 12  # (phases, 2^m) scans (max_tvd, mean success) get a tighter cap

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
        # Written so that a NaN entry, which fails every comparison, fails too.
        if not (p.min() >= 0.0 and p.max() <= 1.0 + 1e-12):
            raise ValueError("probabilities outside [0, 1]")
        total = float(p.sum())
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def dim(self) -> int:
        return 1 << self.m

    def outcomes(self) -> np.ndarray:
        """Outcome phases y/N for y = 0..N-1."""
        return np.arange(1 << self.m) / (1 << self.m)


def phase_distribution(phi: float, m: int, d: int) -> PhaseDistribution:
    """Measurement distribution after the adjoint depth-d plan (d = m: full QFT).

    A computed row that fails the PhaseDistribution check is a numerical
    failure, not a bad argument, so it is raised as ArithmeticError.
    """
    return _checked(phase_distributions(np.array([float(phi)]), m, d)[0], m, d)


def _checked(probs: np.ndarray, m: int, d: int) -> PhaseDistribution:
    try:
        return PhaseDistribution(m, probs)
    except ValueError as exc:
        raise ArithmeticError(f"computed distribution for m={m} d={d}: {exc}") from exc


def phase_distributions(phis: np.ndarray, m: int, d: int) -> np.ndarray:
    """Outcome probabilities for many eigenphases at once; rows sum to 1.

    Builds each row bit by bit from the least significant outcome bit up:
    stage j multiplies the table over y_(j+1)..y_(m-1) by the cos^2 factor
    of qubit j, which depends on the top min(d, m-j) bits of y_j..y_(m-1).
    Chunks the phase batch to bound peak memory. An empty or non-finite
    phase array is a bad argument (ValueError).
    """
    if m > DIST_MAX_QUBITS:
        raise ValueError(f"distribution experiments are limited to m <= {DIST_MAX_QUBITS}")
    plan_truncated_qft(m, d)  # validates (m, d)
    phis = np.asarray(phis, dtype=np.float64)
    if phis.size == 0:
        raise ValueError("empty phase sample")
    if not np.isfinite(phis).all():
        raise ValueError("phase sample holds a non-finite value")
    phis = phis % 1.0
    n = 1 << m
    out = np.empty((len(phis), n))
    chunk = max(1, (1 << 22) // n)
    for start in range(0, len(phis), chunk):
        batch = phis[start:start + chunk]
        rows = len(batch)
        table = np.ones((rows, 1))
        for j in range(m - 1, -1, -1):
            k = min(d, m - j)
            weights = _stage_weights(batch, j, k)
            low = 1 << (m - j - k)  # suffix bits below the k the factor reads
            new = out[start:start + rows] if j == 0 else np.empty((rows, 1 << (m - j)))
            np.multiply(table.reshape(rows, 1, 1 << (k - 1), low),
                        weights.reshape(rows, 2, 1 << (k - 1), 1),
                        out=new.reshape(rows, 2, 1 << (k - 1), low))
            table = new
    return out


def _stage_weights(phis: np.ndarray, j: int, k: int) -> np.ndarray:
    """cos^2(pi * (frac(2^j phi) - c)) for every phase and c = 0, 1/2^k, ..., 1 - 1/2^k.

    Expanded as (cos a cos b + sin a sin b)^2, which cannot round below 0
    as 0.5 + 0.5 cos(2(a - b)) can; the clip removes rounding above 1.
    """
    a = np.pi * ((phis * 2.0**j) % 1.0)
    b = np.pi * np.arange(1 << k) / (1 << k)
    weights = np.multiply.outer(np.cos(a), np.cos(b))
    weights += np.multiply.outer(np.sin(a), np.sin(b))
    np.square(weights, out=weights)
    return np.minimum(weights, 1.0, out=weights)


def _statevector_distributions(phis: np.ndarray, m: int, d: int) -> np.ndarray:
    """The same distributions by applying the adjoint plan gate by gate.

    Test oracle for phase_distributions: builds the complex kickback batch
    and runs every H, CP and BITREV of the plan over it.
    """
    plan = plan_truncated_qft(m, d)
    phis = np.asarray(phis, dtype=np.float64) % 1.0
    n = 1 << m
    out = np.empty((len(phis), n))
    chunk = max(1, (1 << 22) // n)
    for start in range(0, len(phis), chunk):
        amps = np.exp(2j * np.pi * np.outer(phis[start:start + chunk], np.arange(n)))
        amps /= math.sqrt(n)
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
    phi = phi % 1.0
    n = 1 << m
    delta = phi - np.arange(n) / n
    denom = n * np.sin(np.pi * delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = (np.sin(np.pi * n * delta) / denom) ** 2
    probs[delta == 0.0] = 1.0
    return PhaseDistribution(m, probs)


def random_phases(count: int, seed: int) -> np.ndarray:
    """`count` phases drawn uniformly from [0, 1) with the package PRNG."""
    if count < 0:
        raise ValueError(f"phase count must be >= 0, got {count}")
    return SplitMix64(seed).random_array(count)


def grid_phases(points: int) -> np.ndarray:
    """Uniform grid 0, 1/points, ..., (points-1)/points."""
    if points < 0:
        raise ValueError(f"grid must hold >= 0 points, got {points}")
    return np.arange(points) / points


def default_phase_sample(seed: int = 42, count: int = 500, grid: int = 4096) -> np.ndarray:
    """`count` seeded random phases, then a `grid`-point uniform grid.

    Random-only sampling makes the observed maximum depend on the
    generator; the grid pins it down for reproducible acceptance checks.
    Either count may be 0; an empty sample is rejected where it is used.
    """
    return np.concatenate([random_phases(count, seed), grid_phases(grid)])


def max_tvd(m: int, d: int, phases: np.ndarray) -> tuple[float, float]:
    """Largest TVD between full and depth-d outcome distributions over a sample.

    Returns (max value, argmax phase).
    """
    if m > SCAN_MAX_QUBITS:
        raise ValueError(f"dense TVD scans are limited to m <= {SCAN_MAX_QUBITS}")
    phases = np.asarray(phases, dtype=np.float64)
    diff = phase_distributions(phases, m, m)
    diff -= phase_distributions(phases, m, d)
    tv = 0.5 * np.abs(diff, out=diff).sum(axis=1)
    best = int(np.argmax(tv))
    return float(tv[best]), float(phases[best])


def _success_mask(phis: np.ndarray, m: int) -> np.ndarray:
    """Boolean (phases, N) mask of outcomes within circular distance 2^-m."""
    outcomes = np.arange(1 << m) / (1 << m)
    dist = circular_distance_array(phis[:, None], outcomes[None, :])
    return dist <= 2.0**-m


def success_probability(phi: float, m: int, d: int) -> float:
    """Probability that the estimate lands within 2^-m (circular) of phi."""
    return mean_success_probability(np.array([float(phi)]), m, d)


def mean_success_probability(phis: np.ndarray, m: int, d: int, shots: int | None = None,
                             rng: SplitMix64 | None = None) -> float:
    """Success probability averaged over a phase sample.

    Exact mode (shots=None) sums each outcome row over the success window.
    Sampled mode draws `shots` outcomes from each row in turn with `rng`
    and reports the success fraction over all draws, which fluctuates
    binomially around the exact value. A sampled row that fails the
    PhaseDistribution check is raised as ArithmeticError.
    """
    if m > SCAN_MAX_QUBITS:
        raise ValueError(f"success scans are limited to m <= {SCAN_MAX_QUBITS}")
    dists = phase_distributions(phis, m, d)
    mask = _success_mask(np.asarray(phis, dtype=np.float64), m)
    if shots is None:
        return float(np.where(mask, dists, 0.0).sum(axis=1).mean())
    hits = 0
    for row, window in zip(dists, mask):
        outcomes = sample_outcomes(_checked(row, m, d), shots, rng)
        hits += int(np.count_nonzero(window[outcomes]))
    return hits / (shots * len(dists))


def sample_outcomes(dist: PhaseDistribution, shots: int, rng: SplitMix64) -> np.ndarray:
    """Draw measurement outcomes by inverting the cumulative distribution."""
    if shots < 1:
        raise ValueError(f"shot count must be >= 1, got {shots}")
    cdf = np.cumsum(dist.probs)
    u = rng.random_array(shots)
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
