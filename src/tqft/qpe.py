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

One kernel, _fill, evaluates it for a block of phases at O(2^m) real
multiplies per phase; every table path streams its sample through it in
row blocks of BLOCK_ENTRIES entries. phase_distributions returns the whole
(phases, 2^m) table. The scans over a sample never hold one:
mean_success_probability scores each block's rows on the success window
(summed, or sampled with shots), and max_tvd_scan builds the full-depth
reference and its stage weights once per block, which every requested
depth reuses; max_tvd is its one-depth case. The sample checks (register
cap, non-empty, finite) have one owner, _reduced_phases. The gate-by-gate
statevector simulation of the plan (_statevector_distributions) is kept
as the kernel's test oracle, next to the closed-form full-depth kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuits import apply_plan_to_array, check_depth, plan_truncated_qft
from .numerics import SplitMix64, circular_distance_array

DIST_MAX_QUBITS = 20  # distribution experiments stay desk-scale
SCAN_MAX_QUBITS = 12  # scans over a phase sample (max_tvd_scan, mean success) get a tighter cap

# Table entries per row block: 2 MiB of float64, the L2 of one core. Every
# table path fills BLOCK_ENTRIES >> m rows at a time (at least one). Medians
# of 7 interleaved runs on the default 4596-phase sample (2-vCPU Xeon,
# Python 3.11, numpy 2.4), for max_tvd_scan(10, 1..10) / ten max_tvd(10, d)
# calls / phase_distributions(., 12, 12):
#   2^16: 0.56 / 1.00 / 0.35 s    2^17: 0.50 / 0.89 / 0.29 s
#   2^18: 0.46 / 0.84 / 0.24 s    2^19: 0.45 / 0.84 / 0.21 s
#   2^20: 0.48 / 1.02 / 0.27 s
# 2^18 is as fast as 2^19 at half the temporaries.
BLOCK_ENTRIES = 1 << 18

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

    Fills the (phases, 2^m) output one row block at a time (BLOCK_ENTRIES
    entries), so no stage temporary outgrows one block. An empty or
    non-finite phase array is a bad argument (ValueError).
    """
    check_depth(m, d)
    phis = _reduced_phases(phis, m, DIST_MAX_QUBITS)
    out = np.empty((len(phis), 1 << m))
    rows = max(1, BLOCK_ENTRIES >> m)
    for start in range(0, len(phis), rows):
        _fill(phis[start:start + rows], m, d, out[start:start + rows])
    return out


def _reduced_phases(phis, m: int, cap: int) -> np.ndarray:
    """The phase sample mod 1, after the register cap (m <= cap) and sample checks."""
    if m > cap:
        raise ValueError(f"register size m={m} exceeds the cap m <= {cap}")
    phis = np.asarray(phis, dtype=np.float64)
    if phis.size == 0:
        raise ValueError("empty phase sample")
    if not np.isfinite(phis).all():
        raise ValueError("phase sample holds a non-finite value")
    return phis % 1.0


def _fill(batch: np.ndarray, m: int, d: int, out: np.ndarray, weights=None) -> np.ndarray:
    """Write the depth-d outcome rows of `batch` (phases in [0, 1)) into `out`.

    Builds each row bit by bit from the least significant outcome bit up:
    stage j multiplies the table over y_(j+1)..y_(m-1) by the cos^2 factor
    of qubit j, which depends on the top k = min(d, m-j) bits of
    y_j..y_(m-1). The y_j = 1 half is the sin^2 of the same angle, so it is
    the table minus the y_j = 0 half; w <= 1 makes that difference >= 0.
    Given all depth-m `weights`, depth k takes every 2^(m-j-k)-th column of stage j's.
    """
    rows = len(batch)
    table = np.ones((rows, 1))
    for j in range(m - 1, -1, -1):
        k = min(d, m - j)
        half = 1 << (k - 1)
        low = 1 << (m - j - k)  # suffix bits below the k the factor reads
        new = out if j == 0 else np.empty((rows, 1 << (m - j)))
        new = new.reshape(rows, 2, half, low)
        table = table.reshape(rows, half, low)
        w = _stage_weights(batch, j, k) if weights is None else weights[j][:, ::low]
        np.multiply(table, w[:, :, None], out=new[:, 0])
        np.subtract(table, new[:, 0], out=new[:, 1])
        table = new
    return out


def _stage_weights(phis: np.ndarray, j: int, k: int) -> np.ndarray:
    """cos^2(pi * (frac(2^j phi) - c)) for every phase and c = 0, 1/2^k, ..., 1/2 - 1/2^k.

    Expanded as (cos a cos b + sin a sin b)^2, which cannot round below 0
    as 0.5 + 0.5 cos(2(a - b)) can; the clip removes rounding above 1.
    """
    a = np.pi * ((phis * 2.0**j) % 1.0)
    b = np.pi * np.arange(1 << (k - 1)) / (1 << k)
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
    phi = _reduced_phases([phi], m, DIST_MAX_QUBITS)[0]
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
    return max_tvd_scan(m, [d], phases)[0]


def max_tvd_scan(m: int, depths, phases: np.ndarray) -> list[tuple[float, float]]:
    """max_tvd for every requested depth, one (max value, argmax phase) each.

    Streams the sample through row blocks: each block builds the d = m
    reference once and reduces every truncated depth against it into a
    (depths, phases) array, so no (phases, 2^m) table is ever held. The
    argmax phase is returned as the caller gave it, not reduced mod 1.
    All depths are validated before any table is built.
    """
    depths = [check_depth(m, d)[1] for d in depths]
    raw = np.asarray(phases, dtype=np.float64)
    phis = _reduced_phases(raw, m, SCAN_MAX_QUBITS)
    truncated = [(i, d) for i, d in enumerate(depths) if d != m]  # d = m has TVD 0
    tv = np.zeros((len(depths), len(phis)))
    rows = min(max(1, BLOCK_ENTRIES >> m), len(phis))
    ref, trunc = np.empty((rows, 1 << m)), np.empty((rows, 1 << m))
    for start in range(0, len(phis) if truncated else 0, rows):
        batch = phis[start:start + rows]
        n = len(batch)
        weights = [_stage_weights(batch, j, m - j) for j in range(m)]
        _fill(batch, m, m, ref[:n], weights)
        for i, d in truncated:
            diff = _fill(batch, m, d, trunc[:n], weights)
            np.subtract(ref[:n], diff, out=diff)
            tv[i, start:start + n] = 0.5 * np.abs(diff, out=diff).sum(axis=1)
    best = tv.argmax(axis=1)
    return [(float(tv[i, b]), float(raw[b])) for i, b in enumerate(best)]


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
    PhaseDistribution check is raised as ArithmeticError. The sample is
    scored one row block at a time, so no (phases, 2^m) table is held.
    """
    if shots is not None and rng is None:
        raise ValueError(f"sampled mode (shots={shots}) needs a generator rng, got None")
    if shots is not None and shots < 1:
        raise ValueError(f"shot count must be >= 1, got {shots}")
    phis = np.asarray(phis, dtype=np.float64)
    _reduced_phases(phis, m, SCAN_MAX_QUBITS)  # checks the whole sample before the first block
    rows = max(1, BLOCK_ENTRIES >> m)
    sums, hits = [], 0
    for start in range(0, len(phis), rows):
        batch = phis[start:start + rows]
        dists = phase_distributions(batch, m, d)
        mask = _success_mask(batch, m)
        if shots is None:
            sums.append(np.where(mask, dists, 0.0).sum(axis=1))
            continue
        for row, window in zip(dists, mask):
            outcomes = sample_outcomes(_checked(row, m, d), shots, rng)
            hits += int(np.count_nonzero(window[outcomes]))
    if shots is None:
        return float(np.concatenate(sums).mean())
    return hits / (shots * len(phis))


def sample_outcomes(dist: PhaseDistribution, shots: int, rng: SplitMix64) -> np.ndarray:
    """Draw measurement outcomes by inverting the cumulative distribution."""
    if shots < 1:
        raise ValueError(f"shot count must be >= 1, got {shots}")
    cdf = np.cumsum(dist.probs)
    u = rng.random_array(shots)
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
