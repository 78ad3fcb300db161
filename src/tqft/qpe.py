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

One kernel, _fill, evaluates it at O(2^m) real multiplies per phase into
phase-minor (2^m outcomes, phases) blocks of BLOCK_ENTRIES entries, so
every stage is one contiguous loop over the phases; no factor couples two
phases, so the layout changes no float. It fills each block in place, in
one buffer that the caller may reuse for every block, with outcome y in row
y. It reads every stage's weights from _stage_weights, which computes them
for a whole block before the fill, from one cos and one sin call over all m
stages and one einsum per stage against a cached per-depth cos/sin operand,
into a second buffer the caller reuses for every block. phase_distributions
is the one path that transposes a block, into its (phases, 2^m) table. The
scans over a sample hold no table and reduce over the outcome axis:
max_tvd_scan builds the full-depth reference and its stage weights once per
block for every depth of an m to reuse (max_tvd is its one-depth case), in
two table buffers allocated once per m that together fill one block and a
weights buffer beside them, and mean_success_probability reads only the
<= 4 candidate outcomes of each phase's success window. The sample checks
(register cap, 1-D, non-empty, finite) have one owner, _reduced_phases, and
the check of a computed TV or success probability one, _check_unit_interval.
Tests check the kernel against the closed-form full-depth kernel and
circuits.apply_plan_to_array.

Periodicity. For t <= d, P_d(y + 2^(m-t) mod N | phi + 2^-t) = P_d(y | phi),
and so for P_m too, since m >= d. In stage j the factor's angle is
frac(2^j phi) minus the bits y_j .. y_(j+k-1) read as a binary fraction,
k = min(d, m - j). For j >= t neither term moves: 2^j 2^-t is an integer,
and adding 2^(m-t) to y changes only the bits y_0 .. y_(t-1). For j < t,
k >= t - j, so the window holds y_(t-1), and the windowed fraction grows
by 2^(j-t) mod 1 (a carry past y_j drops out mod 1), exactly as
frac(2^j phi) does. Relabelling y is a bijection that carries the success
window with it, so TV(P_m, P_d) and the success probability both have
period 2^-d in phi. The scans therefore evaluate one phase per residue
class mod 2^-d, its first in the sample (_representatives); in floats,
two phases of one class agree only to rounding. The representatives are
nested: a class mod 2^-t, t < d, lies inside one mod 2^-d, so each one
for d is one for every t <= d, and depth d's are the first n_d in a
sweep's prefix order (_class_order).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .circuits import check_depth, check_int
from .numerics import SplitMix64, circular_distance_array
# Unused here; perfbench/tracing.py patches these names in this module.
from .circuits import apply_plan_to_array, plan_truncated_qft

DIST_MAX_QUBITS = 20  # distribution experiments stay desk-scale
SCAN_MAX_QUBITS = 12  # scans over a phase sample (max_tvd_scan, mean success) get a tighter cap

# Most seeded phases, and most grid points, one sample may hold. At both caps
# (150 000 classes mod 2^-1) the worst sweeps, which list no value twice, take
# 33-36 s (`cliff --m 2..12 --d all`) and 38-39 s (`tvd --m 1..12 --d all`) on a
# 2-vCPU Xeon (Python 3.11, numpy 2.4); time grows linearly with classes filled.
MAX_PHASES = 100_000
# Most outcomes drawn per phase: 10^6 draws add 0.08 s and 23 MB to a
# `tfim --n 16 --m 12` trial (0.17 s in all), inside its 1 s budget.
MAX_SHOTS = 1_000_000

# Table entries per block: 2 MiB of float64, the L2 of one core. The
# one-table paths (phase_distributions, success) fill BLOCK_ENTRIES >> m
# phases at a time (at least one); max_tvd_scan's full-depth reference and
# truncated table share one block, BLOCK_ENTRIES >> (m + 1) phases each.
# Every path holds its stage weights in a second buffer of at most as many
# rows. Medians of 7 interleaved runs on the default 4596-phase sample, range
# over two sweeps (2-vCPU Xeon, Python 3.11, numpy 2.4), for
# max_tvd_scan([(10, 1..10)]) / ten max_tvd(10, d) calls /
# phase_distributions(., 12, 12). The scans evaluate one phase per residue
# class (2548 phases at d = 1, 1524 at d = 2, ...):
#   2^16: 0.043 / 0.076-0.078 / 0.13-0.14 s
#   2^17: 0.032-0.033 / 0.061-0.062 / 0.12-0.13 s
#   2^18: 0.031 / 0.057 / 0.13-0.14 s
#   2^19: 0.033-0.035 / 0.059 / 0.22-0.24 s
#   2^20: 0.040-0.044 / 0.067-0.074 / 0.25-0.29 s
# 2^18 beats 2^17 on the scans by 3-9 % and loses to it by about as much on
# phase_distributions, which no command gives a sample; a larger block
# raises peak RSS. Halving BLOCK_ENTRIES for every path slowed in-process
# mean_success_probability by 7-11 %, so only the scan halves its columns.
BLOCK_ENTRIES = 1 << 18

# Probability that phase estimation lands within one grid cell of the true
# phase, in the worst case: 8/pi^2.
SUCCESS_FLOOR = 8.0 / math.pi**2


class PhaseDistribution(NamedTuple("PhaseDistribution", [("m", int), ("probs", np.ndarray)])):
    """Probability mass over the 2^m measurement outcomes."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, m: int, probs: np.ndarray):
        m = check_int("register size m", m, 1)
        p = np.array(probs, dtype=np.float64)  # a copy: the caller's array stays writable
        if p.shape != (1 << m,):
            raise ValueError(f"expected {1 << m} outcome probabilities, got {p.shape}")
        # Written so that a NaN entry, which fails every comparison, fails too.
        if not (p.min() >= 0.0 and p.max() <= 1.0 + 1e-12):
            raise ValueError("probabilities outside [0, 1]")
        total = float(p.sum())
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        p.setflags(write=False)
        return super().__new__(cls, m, p)

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
    probs = phase_distributions(np.array([float(phi)]), m, d)[0]
    try:
        return PhaseDistribution(m, probs)
    except ValueError as exc:
        raise ArithmeticError(f"computed distribution for m={m} d={d}: {exc}") from exc


def phase_distributions(phis: np.ndarray, m: int, d: int) -> np.ndarray:
    """Outcome probabilities for many eigenphases at once; rows sum to 1.

    Fills one (2^m, phases) block of BLOCK_ENTRIES entries at a time, into
    one buffer reused for every block, with its stage weights in a second
    one, and copies its transpose into the output. An empty, non-finite or
    non-1-D phase array is a bad argument (ValueError).
    """
    check_depth(m, d)
    phis = _reduced_phases(phis, m, DIST_MAX_QUBITS)
    out = np.empty((len(phis), 1 << m))
    cols = min(len(phis), max(1, BLOCK_ENTRIES >> m))
    buf, weights_buf = np.empty((2, 1 << m, cols))
    for start in range(0, len(phis), cols):
        batch = phis[start:start + cols]
        weights = _stage_weights(batch, m, d, weights_buf)
        out[start:start + cols] = _fill(batch, m, d, weights, buf).T
    return out


def _reduced_phases(phis, m: int, cap: int) -> np.ndarray:
    """The phase sample mod 1, after the register cap (m <= cap) and sample checks."""
    if m > cap:
        raise ValueError(f"register size m={m} exceeds the cap m <= {cap}")
    phis = np.asarray(phis, dtype=np.float64)
    if phis.ndim != 1:
        raise ValueError(f"phase sample must be 1-D, got shape {phis.shape}")
    if phis.size == 0:
        raise ValueError("empty phase sample")
    if not np.isfinite(phis).all():
        raise ValueError("phase sample holds a non-finite value")
    return phis % 1.0


def _representatives(phis: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted indices of the first phase of each residue class mod 2^-d
    in `phis`, and each class's phase count. The class key frac(phi * 2^d)
    is exact in binary floating point (a power-of-two scale, then the floor
    subtracted), so two phases share a key exactly when they differ by a
    multiple of 2^-d."""
    key = phis * 2.0**d
    key -= np.floor(key)
    _, first, sizes = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(first)
    return first[order], sizes[order]


def _fill(batch: np.ndarray, m: int, d: int, weights, out: np.ndarray) -> np.ndarray:
    """The depth-d table of `batch` (phases in [0, 1)): 2^m rows, one column
    per phase, outcome y in row y.

    Phase-minor, so every stage operation is one contiguous loop over the
    phases, however small m is. Filled in place into the contiguous prefix
    of `out`, a float64 buffer of at least 2^m * len(batch) entries that the
    caller owns and may reuse for every block; the table returned is a view
    of it. Built bit by bit from the least significant outcome bit up, and
    grown from the table's last row toward its first: stage j multiplies
    the rows so far (bits y_(j+1)..y_(m-1)) by the cos^2 factor of qubit j,
    which depends on the top k = min(d, m-j) bits of y_j..y_(m-1), into the
    rows just above them, the y_j = 0 half, and subtracts that product in
    place, leaving the sin^2 half, y_j = 1 (w <= 1 makes it >= 0). The
    factors are stage j of `weights` (_stage_weights), read only: each row
    of depth-d weights, or every 2^(m-j-k)-th row of depth-m weights, which
    a depth d < m shares with the full-depth reference.
    """
    n_out, cols = 1 << m, len(batch)
    buf = out.reshape(-1)[:n_out * cols].reshape(n_out, cols)
    buf[-1] = 1.0
    for j in range(m - 1, -1, -1):
        k = min(d, m - j)
        half = 1 << (k - 1)
        low = 1 << (m - j - k)  # suffix bits below the k the factor reads
        rows = half * low  # the table so far, over y_(j+1)..y_(m-1)
        table = buf[n_out - rows:].reshape(half, low, cols)
        lower = buf[n_out - 2 * rows:n_out - rows].reshape(half, low, cols)
        w = weights[j][::len(weights[j]) >> (k - 1)]
        np.multiply(table, w[:, None], out=lower)
        np.subtract(table, lower, out=table)
    return buf


@functools.cache
def _row_trig(k: int) -> np.ndarray:
    """The (2^(k-1), 2) operand (cos b, sin b), b = pi * c for the rows c of
    _stage_weights. Built once per k and read-only; all k <= DIST_MAX_QUBITS
    together hold 2^DIST_MAX_QUBITS rows, 16 MiB."""
    b = np.pi * np.arange(1 << (k - 1)) / (1 << k)
    rows = np.stack([np.cos(b), np.sin(b)], axis=1)
    rows.setflags(write=False)
    return rows


def _stage_weights(batch: np.ndarray, m: int, d: int, out: np.ndarray) -> list[np.ndarray]:
    """Every stage's depth-d weights for `batch`: stage j = 0..m-1 gets the
    (2^(k-1), phases) view, k = min(d, m-j),
    cos^2(pi * (frac(2^j phi) - c)), row c = 0, 1/2^k, ..., 1/2 - 1/2^k, column phi.

    The m views fill consecutive rows of the contiguous prefix of `out`, a
    float64 buffer of at least (2^m - 1) * len(batch) entries that the
    caller owns and may reuse for every block. One cos and one sin call
    cover all m angles a = pi * frac(2^j phi); frac is x - floor(x), exact
    for x = 2^j phi >= 0, at a tenth of the cost of % 1.0. Each weight is
    expanded as (cos a cos b + sin a sin b)^2, which cannot round below 0
    as 0.5 + 0.5 cos(2(a - b)) can, and clipped to remove rounding above 1;
    the square and the clip each take one call over all m stages, which
    measured faster on the scans than two calls per stage. The sum is one
    einsum per stage of the cached (cos b, sin b) rows with the stage's
    (2, phases) (cos a, sin a) operand, which rounds as fl(fl(cos b cos a)
    + fl(sin b sin a)) at every batch width. A BLAS product (@) does not:
    with numpy 2.4's OpenBLAS it differs in the last bit at almost every
    width and k.
    """
    cols = len(batch)
    a = batch * 2.0 ** np.arange(m)[:, None]
    a -= np.floor(a)
    a *= np.pi
    trig = np.empty((m, 2, cols))
    np.cos(a, out=trig[:, 0])
    np.sin(a, out=trig[:, 1])
    flat, stages, start = out.reshape(-1), [], 0
    for j in range(m):
        rows = _row_trig(min(d, m - j))
        w = flat[start:start + len(rows) * cols].reshape(len(rows), cols)
        np.einsum("ck,kp->cp", rows, trig[j], out=w)
        stages.append(w)
        start += w.size
    filled = flat[:start]
    np.square(filled, out=filled)
    np.minimum(filled, 1.0, out=filled)
    return stages


def closed_form_full_distribution(phi: float, m: int) -> PhaseDistribution:
    """Full-QFT outcome distribution from the squared Dirichlet kernel.

    probs[y] = sin^2(pi*N*delta) / (N^2 sin^2(pi*delta)) with
    delta = phi - y/N, and the 0/0 limit 1 at delta = 0. Independent of the
    circuit path; serves as its test oracle.
    """
    m = check_int("register size m", m, 1)
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
    count = check_int("phase count", count, 0, MAX_PHASES)
    return SplitMix64(seed).random_array(count)


def grid_phases(points: int) -> np.ndarray:
    """Uniform grid 0, 1/points, ..., (points-1)/points."""
    points = check_int("grid point count", points, 0, MAX_PHASES)
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
    return max_tvd_scan([(m, [d])], phases)[0][0]


def max_tvd_scan(sweep, phases: np.ndarray) -> list[list[tuple[float, float]]]:
    """max_tvd for each (m, depths) entry of `sweep`: a list per entry, with
    one (max value, argmax phase) per depth, in the order given.

    The TV at depth d has period 2^-d in phi (module docstring), so depth d
    evaluates only its representatives, the first n_d columns of a prefix
    order (_class_order) built once for the whole sweep. The argmax phase
    is the first sample phase of the maximising class (the earliest in the
    sample on a tie), as the caller gave it, not reduced mod 1; a d = m row
    is (0.0, first sample phase) and builds nothing. Every m and depth is
    validated before any table is built.
    """
    sweep = [(check_int("register size m", m, 1), [check_depth(m, d)[1] for d in depths])
             for m, depths in sweep]
    raw = np.asarray(phases, dtype=np.float64)
    phis = _reduced_phases(raw, max((m for m, _ in sweep), default=1), SCAN_MAX_QUBITS)
    order, counts = _class_order(phis, {d for m, depths in sweep for d in depths if d < m})
    result = []
    for m, depths in sweep:
        truncated = {d: counts[d] for d in depths if d < m}
        best = _truncation_maxima(phis, order, m, truncated) if truncated else {}
        best[m] = (0.0, 0)  # d = m has TVD 0
        result.append([(float(value), float(raw[i])) for value, i in map(best.get, depths)])
    return result


def _class_order(phis: np.ndarray, depths) -> tuple[np.ndarray, dict[int, int]]:
    """The smallest depth's representatives in prefix order (module
    docstring), stably sorted by the deepest of `depths` for which each is
    still one, deepest first, and the count n_d of each depth's."""
    deepest = np.zeros(len(phis), dtype=np.int64)
    for d in sorted(depths):
        deepest[_representatives(phis, d)[0]] = d
    reps = np.flatnonzero(deepest)
    order = reps[np.argsort(-deepest[reps], kind="stable")]
    return order, {d: int(np.count_nonzero(deepest >= d)) for d in depths}


def _truncation_maxima(phis, order, m: int, counts: dict[int, int]) -> dict[int, tuple]:
    """For each depth d < m, the largest TV(P_m, P_d) over the first
    counts[d] phases of phis[order], and the earliest sample index in
    `order` that reaches it. Each (2^m, phases) block builds the d = m
    reference and its stage weights once; depth d fills only the block's
    columns below counts[d], through column slices of both, so every float
    is what a one-depth call computes and no (phases, 2^m) table is held.
    The reference and truncated buffers together hold BLOCK_ENTRIES
    entries, BLOCK_ENTRIES >> (m + 1) phases each (at least one), and the
    reused weights buffer 2^m - 1 rows of as many phases; no factor
    couples two phases, so the width changes no float. |ref - trunc| is
    summed over the outcome axis by an in-place halving tree, a pairwise
    sum (within m ulps of exact) at the cost of sum(axis=0). A TV that is
    not finite or lies outside [0, 1] is raised as ArithmeticError. The
    block buffers and TV rows go on return, before the sweep's next m
    allocates: kept, they raised `tqft suite`'s peak RSS.
    """
    phis, width = phis[order], max(counts.values())
    cols = min(width, max(1, BLOCK_ENTRIES >> (m + 1)))
    tv = {d: np.empty(n) for d, n in counts.items()}
    ref_buf, diff_buf = np.empty((2, 1 << m, cols))
    weights_buf = np.empty(((1 << m) - 1, cols))
    for start in range(0, width, cols):
        batch = phis[start:start + cols]
        weights = _stage_weights(batch, m, m, weights_buf)
        ref = _fill(batch, m, m, weights, ref_buf)
        for d, out in tv.items():
            n = len(out[start:start + cols])  # the block's columns of depth d
            if n:
                diff = _fill(batch[:n], m, d, [w[:, :n] for w in weights], diff_buf)
                np.abs(np.subtract(ref[:, :n], diff, out=diff), out=diff)
                for b in range(m - 1, -1, -1):  # halving tree: rows r and r + 2^b
                    diff[:1 << b] += diff[1 << b:2 << b]
                np.multiply(diff[0], 0.5, out=out[start:start + n])
    for d, v in tv.items():
        _check_unit_interval(v, "TV distance", m, d)
    return {d: (v.max(), order[:len(v)][v == v.max()].min()) for d, v in tv.items()}


def _check_unit_interval(values: np.ndarray, what: str, m: int, d: int) -> None:
    """Raise ArithmeticError, naming m and d, unless every computed value
    lies in [0, 1], up to rounding above 1."""
    # Written so that a NaN, which fails every comparison, fails too.
    if not (values.min() >= 0.0 and values.max() <= 1.0 + 1e-12):
        raise ArithmeticError(f"computed {what} for m={m} d={d} "
                              "lies outside [0, 1] or is not finite")


def success_probability(phi: float, m: int, d: int) -> float:
    """Probability that the estimate lands within 2^-m (circular) of phi."""
    return mean_success_probability(np.array([float(phi)]), m, d)


def mean_success_probability(phis: np.ndarray, m: int, d: int, shots: int | None = None,
                             rng: SplitMix64 | None = None) -> float:
    """Success probability averaged over a phase sample.

    A phase's success probability p(phi) is the sum of its window, the
    outcomes within circular distance 2^-m of phi. Only the candidates
    floor(phi*N)-1 .. floor(phi*N)+2 (mod N) can be that close, so one
    block loop gathers just their probabilities from each (2^m, phases)
    block, in one buffer reused for every block (its stage weights in a
    second), and sums each window in ascending outcome order. A p that is
    not finite or lies outside [0, 1] is raised as ArithmeticError. Exact
    mode (shots=None) scores one phase per residue class mod 2^-d, its
    first in the sample, since p has period 2^-d (module docstring), and
    weights each class's p by its phase count over the sample length.
    Sampled mode scores every phase. A shot drawn from the outcome
    distribution lands in the window with probability
    p(phi), independently of the other shots, so a phase's success count
    is Binomial(shots, p(phi)); it is drawn as the count of `shots` uniforms
    u < p(phi), one stretch of the `rng` stream per phase, in sample order.
    One rng call draws for as many whole phases as fit BLOCK_ENTRIES >> 3
    uniforms, at least one, so a small shot count pays no call per phase.
    """
    if shots is not None and rng is None:
        raise ValueError(f"sampled mode (shots={shots}) needs a generator rng, got None")
    if shots is not None:
        shots = check_int("shot count", shots, 1, MAX_SHOTS)
    m, d = check_depth(m, d)
    phis = _reduced_phases(phis, m, SCAN_MAX_QUBITS)  # checks the whole sample first
    count = len(phis)
    if shots is None:
        keep, sizes = _representatives(phis, d)
        phis = phis[keep]
    n_out, cols = 1 << m, min(len(phis), max(1, BLOCK_ENTRIES >> m))
    offsets = np.arange(-1, min(4, n_out) - 1)[:, None]  # 2 at m = 1: no outcome twice
    buf, weights_buf = np.empty((2, n_out, cols))  # reused by every block
    sums = []
    for start in range(0, len(phis), cols):
        batch = phis[start:start + cols]
        weights = _stage_weights(batch, m, d, weights_buf)
        cells = np.floor(batch * n_out).astype(np.int64)
        candidates = np.sort((cells + offsets) % n_out, axis=0)
        inside = circular_distance_array(batch, candidates / n_out) <= 2.0**-m
        probs = np.take_along_axis(_fill(batch, m, d, weights, buf), candidates, axis=0)
        sums.append(np.where(inside, probs, 0.0).sum(axis=0))
    p = np.concatenate(sums)
    _check_unit_interval(p, "success probability", m, d)
    if shots is None:
        return float((sizes * p).sum() / count)
    rows, hits = max(1, (BLOCK_ENTRIES >> 3) // shots), 0
    for q in np.split(p, range(rows, count, rows)):  # no draws held across calls
        hits += int(np.count_nonzero(rng.random_array(shots * len(q)).reshape(len(q), shots)
                                     < q[:, None]))
    return hits / (shots * count)


def sample_outcomes(dist: PhaseDistribution, shots: int, rng: SplitMix64) -> np.ndarray:
    """Draw measurement outcomes by inverting the cumulative distribution."""
    shots = check_int("shot count", shots, 1, MAX_SHOTS)
    cdf = np.cumsum(dist.probs)
    u = rng.random_array(shots)
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)

