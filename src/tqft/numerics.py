"""Self-contained numerical kernels: a dense symmetric eigensolver, a
deterministic counter-based PRNG, and circular phase distances.

Conventions used throughout the package:

- Statevector amplitudes are complex128, index i runs over the 2^m basis
  states with qubit 0 holding the most significant bit of i.
- Phases live on the unit circle [0, 1) in "turns" (fractions of 2*pi).
- The PRNG is SplitMix64 (Steele, Lea & Flood; the finalizer popularised
  by Vigna's splitmix64.c). It is counter-based, so output i depends only
  on (seed, i): identical seeds give identical streams on every platform,
  and batches can be generated out of order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ConvergenceError(RuntimeError):
    """Eigensolver failed to converge within its sweep budget."""


@dataclass(frozen=True)
class SymmetricMatrix:
    """Dense real symmetric matrix; construction enforces exact symmetry."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.array(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square 2-D array, got shape {a.shape}")
        # (a + a.T)/2 is bitwise symmetric: both (i,j) and (j,i) evaluate
        # the same float expression.
        a = (a + a.T) / 2.0
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


# SplitMix64 constants (64-bit golden-ratio increment and finalizer).
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF


class SplitMix64:
    """Deterministic 64-bit counter-based generator.

    Output i is mix(seed + (i+1)*gamma), so the stream is a pure function
    of the seed. `random()` maps the top 53 bits to a double in [0, 1).
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._counter = 0

    def next_u64(self) -> int:
        return int(self.next_u64_array(1)[0])

    def random(self) -> float:
        return float(self.random_array(1)[0])

    def next_u64_array(self, n: int) -> np.ndarray:
        """The next n outputs; next_u64 and random draw batches of one."""
        counters = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        z = np.uint64(self.seed) + counters * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def random_array(self, n: int) -> np.ndarray:
        return (self.next_u64_array(n) >> np.uint64(11)) * 2.0**-53

    def spawn(self, task_index: int) -> "SplitMix64":
        """Independent generator for parallel task `task_index` (seed + index)."""
        return SplitMix64((self.seed + task_index) & _MASK)


def circular_distance(a: float, b: float) -> float:
    """Distance between two phases on the unit circle, in [0, 0.5].

    Inputs are reduced modulo 1 first, so any real arguments are accepted.
    """
    return float(circular_distance_array(a, b))


def circular_distance_array(a, b) -> np.ndarray:
    diff = np.abs(np.asarray(a) % 1.0 - np.asarray(b) % 1.0)
    return np.minimum(diff, 1.0 - diff)


JACOBI_MAX_SWEEPS = 50  # cyclic Jacobi converges quadratically, so this is a failure guard


def jacobi_eigh(matrix: SymmetricMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a real symmetric matrix by cyclic Jacobi.

    Returns (eigenvalues ascending, eigenvectors as orthonormal columns),
    with eigenvectors[:, i] belonging to eigenvalues[i]. Rotations below a
    per-sweep threshold are skipped; convergence is declared when the
    off-diagonal Frobenius norm falls below 1e-13 times the matrix norm.

    Raises ConvergenceError if JACOBI_MAX_SWEEPS sweeps end first -- a
    partial decomposition is never returned.
    """
    n = matrix.dim
    if n > 1024:
        raise ValueError(f"eigensolver is desk-scale only (dim <= 1024), got {n}")
    v = np.eye(n)
    peak = float(np.abs(matrix.entries).max(initial=0.0))
    if peak == 0.0:
        return np.zeros(n), v
    # Rotations are ratios, so scaling by a power of two is exact; it keeps
    # the squares inside np.linalg.norm away from underflow and overflow.
    exponent = int(np.frexp(peak)[1])
    a = np.ldexp(matrix.entries, -exponent)
    tol = 1e-13 * float(np.linalg.norm(a))

    for sweep in range(JACOBI_MAX_SWEEPS):
        off = _off_norm(a)
        if off <= tol:
            break
        # Rotating away entries much smaller than the current off-norm is
        # wasted work early on; the threshold tightens as the sweep count grows.
        threshold = off / n if sweep < 3 else 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= threshold or apq == 0.0:
                    continue
                _rotate(a, v, p, q)
    else:
        raise ConvergenceError(
            f"Jacobi eigensolver did not converge in {JACOBI_MAX_SWEEPS} sweeps "
            f"(dim={n}, off-norm={_off_norm(a):.3e}, tol={tol:.3e})"
        )

    order = np.argsort(np.diag(a), kind="stable")
    return np.ldexp(np.diag(a)[order], exponent), v[:, order]


def _off_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a - np.diag(np.diag(a))))


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """One symmetric Schur rotation zeroing a[p, q], accumulated into v."""
    # Python floats, so an overflowing tau * tau gives inf and t = 0, its limit.
    tau = float(a[q, q] - a[p, p]) / (2.0 * float(a[p, q]))
    # Smaller-magnitude root of t^2 + 2*tau*t - 1 = 0; tau = -0.0 takes t > 0.
    t = (-1.0 if tau < 0.0 else 1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    for rows in (a, a.T, v.T):
        rp = rows[p].copy()
        rows[p] = c * rp - s * rows[q]
        rows[q] = s * rp + c * rows[q]
    a[p, q] = a[q, p] = 0.0
