"""Independent references the benchmark checks every op against.

None of these share code with the path they check:

- ``truncated_distribution`` evaluates the depth-d outcome distribution
  from the semiclassical product formula (Griffiths & Niu, PRL 76, 3228,
  1996) instead of applying gates to a statevector;
- ``tfim_eigenvalues`` builds the Ising Hamiltonian from Kronecker products
  and diagonalizes it with LAPACK (``numpy.linalg.eigvalsh``) instead of
  the in-house Jacobi solver;
- ``full_depth_rmse`` evaluates the three-term budget from its formula.
"""

from __future__ import annotations

import math

import numpy as np


def truncated_distribution(phi: float, m: int, d: int) -> np.ndarray:
    """P(y | phi) after the adjoint depth-d QFT, by the product formula.

    With y_j the bit of y read most significant first,
    P(y) = prod_j cos^2(pi * (2^j phi - sum_{k=1}^{min(d, m-j)} y_{j+k-1} / 2^k)).
    """
    n = 1 << m
    bits = (np.arange(n)[:, None] >> (m - 1 - np.arange(m))) & 1
    probs = np.ones(n)
    for j in range(m):
        correction = sum(bits[:, j + k - 1] / 2.0**k for k in range(1, min(d, m - j) + 1))
        probs *= np.cos(np.pi * ((2**j * phi) % 1.0 - correction)) ** 2
    return probs


def tvd_bound_tight(m: int, d: int) -> float:
    return (m - d) * math.sin(math.pi / 2**d)


def tfim_eigenvalues(n: int, j: float, h: float) -> np.ndarray:
    """Ascending spectrum of H = -J sum Z_i Z_{i+1} - h sum X_i (open chain)."""
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])

    def site_op(ops: dict[int, np.ndarray]) -> np.ndarray:
        out = np.ones((1, 1))
        for site in range(n):
            out = np.kron(out, ops.get(site, np.eye(2)))
        return out

    ham = -j * sum(site_op({i: z, i + 1: z}) for i in range(n - 1))
    ham = ham - h * sum(site_op({i: x}) for i in range(n))
    return np.linalg.eigvalsh(ham)


def full_depth_rmse(m: int, eps_2q: float, c: float) -> float:
    """sqrt(precision + noise) for the full circuit: no truncation term."""
    gates = m * (m - 1) // 2
    return math.sqrt(1.0 / (3.0 * 4.0**m) + (gates * eps_2q * c) ** 2)
