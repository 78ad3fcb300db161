"""Hardware-facing design rules for choosing a truncation depth.

Everything here is closed-form. The central rule maps a device's two-qubit
error rate to the deepest rotation still worth applying: a controlled
phase of angle 2*pi/2^k contributes less accuracy than it costs once that
angle drops below the gate error, giving

    depth = floor(log2(2*pi / eps_2q)).

Around it sit the truncation-error bound, the failure-budget depth, the
success-collapse depth, the three-term RMSE model, and the noise threshold
above which the truncated circuit beats the full one. Each is one
closed-form function of (m, d) and, where it applies, the error rate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .circuits import check_depth, gate_count

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

    Exact floor of log2(2*pi/eps_2q), read off binary exponents and mantissas
    (log2 of a rounded quotient is one too high just above each 2*pi/2^k);
    retained angles satisfy 2*pi/2^depth >= eps_2q > 2*pi/2^(depth+1).
    """
    if not 0.0 < eps_2q < 2.0 * math.pi:
        raise ValueError(f"error rate must lie in (0, 2*pi), got {eps_2q}")
    (mant_2pi, exp_2pi), (mant, exp) = math.frexp(2.0 * math.pi), math.frexp(eps_2q)
    return exp_2pi - exp - int(mant_2pi < mant)


def tvd_bound(m: int, d: int, form: str = "tight") -> float:
    """Upper bound on the full-vs-truncated outcome TVD.

    form="tight": (m-d)*sin(pi/2^d); form="loose": pi*(m-d)/2^d. Both
    vanish at d = m; tight <= loose always. The loose form exceeds 1 for
    small d, where the trivial TVD <= 1 takes over.
    """
    m, d = check_depth(m, d)
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
    check_depth(m)
    return math.log2(math.pi * m / alpha)


def cliff_depth(m: int) -> int:
    """Depth below which estimation success collapses: ceil(log2 m) + 2."""
    m, _ = check_depth(m)
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
    if not 0.0 <= eps_2q <= 1.0:
        raise ValueError(f"error rate is a per-gate probability in [0, 1], got {eps_2q}")
    if not 0.0 <= c < math.inf:
        raise ValueError(f"noise constant must be finite and >= 0, got {c}")
    m, d = check_depth(m, m if d is None else d)
    tv, gates = tvd_bound(m, d, form="loose"), gate_count(m, d)
    precision = math.ldexp(1.0 / 3.0, -2 * m)
    truncation = tv * tv / 3.0
    amplitude = gates * eps_2q * c
    if not amplitude < 2.0**512:  # the square overflows from here on
        raise ArithmeticError(f"RMSE noise term is not finite: G={gates}, eps_2q={eps_2q}, c={c}")
    noise = amplitude ** 2
    return ErrorBudget(precision, truncation, noise, c,
                       math.sqrt(precision + truncation + noise))


def crossover_error_rate(m: int, d: int, c: float = DEFAULT_NOISE_CONSTANT) -> float:
    """Noise threshold above which the depth-d circuit has lower model RMSE
    than the full circuit, where the two RMSE curves meet:

        eps = (TV / sqrt(3)) / (c * sqrt(G_full^2 - G_trunc^2)),  TV = pi*(m-d)/2^d.

    Undefined at d = m (no gate-count gap).
    """
    if not 1 <= d < m:
        raise ValueError(f"crossover needs 1 <= d < m, got d={d}, m={m}")
    if not 0.0 < c < math.inf:
        raise ValueError(f"noise constant must be finite and > 0, got {c}")
    gap = math.sqrt(float(gate_count(m, m)) ** 2 - float(gate_count(m, d)) ** 2)
    eps = (tvd_bound(m, d, form="loose") / math.sqrt(3.0)) / (c * gap)
    if not math.isfinite(eps):
        raise ArithmeticError(f"crossover error rate is not finite at m={m}, d={d}, c={c}")
    return eps


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
