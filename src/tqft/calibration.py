"""Hardware-facing design rules for choosing a truncation depth.

Everything here is closed-form. The central rule maps a device's two-qubit
error rate to the deepest rotation still worth applying: a controlled
phase of angle 2*pi/2^k contributes less accuracy than it costs once that
angle drops below the gate error, giving

    depth = floor(log2(2*pi / eps_2q)).

Around it sit the truncation-error bound, the failure-budget depth, the
success-collapse depth, the three-term RMSE model, and the noise threshold
above which the truncated circuit beats the full one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .circuits import gate_count

DEFAULT_NOISE_CONSTANT = 0.033  # calibrated against 16-qubit runs at eps_2q = 1e-3


@dataclass(frozen=True)
class PlatformCalibration:
    """A named device and its two-qubit depolarizing error rate per gate."""

    name: str
    eps_2q: float

    def __post_init__(self):
        if not 0.0 < self.eps_2q < 1.0:
            raise ValueError(f"two-qubit error rate must lie in (0, 1), got {self.eps_2q}")


DEFAULT_PLATFORMS: tuple[PlatformCalibration, ...] = (
    PlatformCalibration("IBM Eagle r3", 3e-3),
    PlatformCalibration("IBM Heron r2", 5e-4),
    PlatformCalibration("IonQ Aria", 3e-4),
    PlatformCalibration("IQM Garnet", 2e-3),
)


def optimal_depth(eps_2q: float) -> int:
    """Deepest angle index whose rotation 2*pi/2^k still exceeds eps_2q.

    Exact floor of log2(2*pi/eps_2q); retained angles satisfy
    2*pi/2^depth >= eps_2q > 2*pi/2^(depth+1).
    """
    if not 0.0 < eps_2q < 2.0 * math.pi:
        raise ValueError(f"error rate must lie in (0, 2*pi), got {eps_2q}")
    return math.floor(math.log2(2.0 * math.pi / eps_2q))


def tvd_bound(m: int, d: int, form: str = "tight") -> float:
    """Upper bound on the full-vs-truncated outcome TVD.

    form="tight": (m-d)*sin(pi/2^d); form="loose": pi*(m-d)/2^d. Both
    vanish at d = m; tight <= loose always. The loose form exceeds 1 for
    small d, where the trivial TVD <= 1 takes over.
    """
    if m < 1 or not 1 <= d <= m:
        raise ValueError(f"need 1 <= d <= m, got d={d}, m={m}")
    if form == "tight":
        return (m - d) * math.sin(math.ldexp(math.pi, -d))
    if form == "loose":
        return math.ldexp(math.pi * (m - d), -d)
    raise ValueError(f"unknown bound form {form!r} (expected 'tight' or 'loose')")


def equal_budget_depth(alpha: float, m: int) -> float:
    """Depth at which truncation error matches an estimation failure budget.

    Returns log2(pi*m/alpha) unrounded; callers take the ceiling when an
    integer depth is needed.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"failure budget must lie in (0, 1), got {alpha}")
    if m < 1:
        raise ValueError(f"register size must be >= 1, got {m}")
    return math.log2(math.pi * m / alpha)


def cliff_depth(m: int) -> int:
    """Depth below which estimation success collapses: ceil(log2 m) + 2."""
    if m < 2:
        raise ValueError(f"register size must be >= 2, got {m}")
    return (m - 1).bit_length() + 2


@dataclass(frozen=True)
class ErrorBudget:
    """Three-term RMSE decomposition, in phase units (turns).

    rmse^2 is exactly the sum of the precision, truncation, and noise
    terms; each term is the squared contribution of one error source.
    """

    precision_term: float
    truncation_term: float
    noise_term: float
    noise_constant: float
    rmse: float

    def __post_init__(self):
        if min(self.precision_term, self.truncation_term, self.noise_term) < 0.0:
            raise ValueError("error-budget terms must be nonnegative")


def error_budget(m: int, d: int | None, eps_2q: float,
                 c: float = DEFAULT_NOISE_CONSTANT) -> ErrorBudget:
    """Analytic RMSE model for depth-d (or full, d=None) estimation.

      precision   1 / (3 * 2^(2m))         finite register resolution
      truncation  TV^2 / 3                 TV = pi*(m-d)/2^d, 0 when full
      noise       (G * eps_2q * c)^2       G = retained two-qubit gates
    """
    if m < 1:
        raise ValueError(f"register size must be >= 1, got {m}")
    if not 0.0 <= eps_2q < math.inf:
        raise ValueError(f"error rate must be finite and >= 0, got {eps_2q}")
    if not 0.0 <= c < math.inf:
        raise ValueError(f"noise constant must be finite and >= 0, got {c}")
    if d is None:
        tv, gates = 0.0, gate_count(m, m)
    else:
        tv, gates = tvd_bound(m, d, form="loose"), gate_count(m, d)
    precision = math.ldexp(1.0 / 3.0, -2 * m)
    truncation = tv * tv / 3.0
    noise = (gates * eps_2q * c) ** 2
    return ErrorBudget(precision, truncation, noise, c,
                       math.sqrt(precision + truncation + noise))


def crossover_from_terms(tv: float, gates_full: int, gates_truncated: int, c: float) -> float:
    """Error rate where full and truncated RMSE curves meet, from raw terms:

        eps = (TV / sqrt(3)) / (c * sqrt(G_full^2 - G_trunc^2)).
    """
    if gates_full <= gates_truncated:
        raise ValueError("crossover needs a strictly smaller truncated gate count")
    if not 0.0 < c < math.inf:
        raise ValueError(f"noise constant must be finite and > 0, got {c}")
    gap = math.sqrt(float(gates_full) ** 2 - float(gates_truncated) ** 2)
    return (tv / math.sqrt(3.0)) / (c * gap)


def crossover_error_rate(m: int, d: int, c: float = DEFAULT_NOISE_CONSTANT) -> float:
    """Noise threshold above which the depth-d circuit has lower model RMSE
    than the full circuit. Undefined at d = m (no gate-count gap)."""
    if not 1 <= d < m:
        raise ValueError(f"crossover needs 1 <= d < m, got d={d}, m={m}")
    return crossover_from_terms(tvd_bound(m, d, form="loose"), gate_count(m, m),
                                gate_count(m, d), c)


@dataclass(frozen=True)
class PlatformRow:
    """One platform's depth rule and gate budget at register size m."""

    name: str
    eps_2q: float
    depth: int
    gates_truncated: int
    gates_full: int
    reduction: float
    clamped: bool  # True when depth exceeded m and the full circuit is used


def platform_report(m: int, platforms: tuple[PlatformCalibration, ...] | None = None
                    ) -> list[PlatformRow]:
    """Gate budgets per platform: depth, retained/full counts, reduction.

    Platforms whose calibrated depth exceeds m fall back to the full
    circuit and are flagged `clamped` instead of failing.
    """
    if m < 2:
        raise ValueError(f"register size must be >= 2, got {m}")
    rows = []
    for plat in platforms if platforms is not None else DEFAULT_PLATFORMS:
        depth = optimal_depth(plat.eps_2q)
        clamped = depth > m
        if clamped:
            depth = m
        g_trunc = gate_count(m, depth)
        g_full = gate_count(m, m)
        rows.append(PlatformRow(plat.name, plat.eps_2q, depth, g_trunc, g_full,
                                1.0 - g_trunc / g_full, clamped))
    return rows


def load_platforms(path: str | Path) -> tuple[PlatformCalibration, ...]:
    """Read a platform registry: CSV with header `name,eps_2q`."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["name", "eps_2q"]:
            raise ValueError(f"platform registry {path} must have header 'name,eps_2q'")
        platforms = []
        for row in reader:
            if None in row or None in row.values():
                raise ValueError(f"platform registry {path} line {reader.line_num} "
                                 f"must hold exactly the two fields name,eps_2q")
            platforms.append(PlatformCalibration(row["name"].strip(), float(row["eps_2q"])))
    if not platforms:
        raise ValueError(f"platform registry {path} holds no records")
    return tuple(platforms)
