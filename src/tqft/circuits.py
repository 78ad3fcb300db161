"""Depth-truncated QFT circuit plans and their statevector application.

A plan is fully determined by register size m and truncation depth d; its
gate list is derived from the pair and contains, for each stage
j = 0..m-1 (acting on qubit j, qubit 0 = most significant bit):

    H on qubit j, then controlled-phase gates CP(k) for k = 2..min(d, m-j),
    with control qubit j+k-1 and phase angle 2*pi/2^k on |11>.

A single bit-reversal permutation closes the plan. It relabels amplitudes
classically instead of emitting SWAP gates, so it never enters the
two-qubit gate count; with it, the d = m plan realizes the exact DFT
matrix entry (y, x) = exp(2*pi*i*x*y/N)/sqrt(N).

Truncation drops every rotation finer than 2*pi/2^d. gate_count gives the
retained controlled-phase count without building a plan. check_int is the
one integer check for every size, depth, count and index in the package;
check_depth applies it to the pair (m, d) for every layer.

Statevector application defines what a plan does. tqft.qpe computes
outcome distributions from a product formula instead, and tests check it
against apply_plan_to_array and the dense unitaries here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

HADAMARD = "H"
CONTROLLED_PHASE = "CP"
BIT_REVERSAL = "BITREV"


class GateOp(NamedTuple):
    """One plan element: H <target>, CP <k> <control> <target>, or BITREV."""

    kind: str
    target: int = -1
    control: int = -1
    k: int = 0

    @property
    def angle(self) -> float:
        """Rotation angle 2*pi/2^k in radians (controlled-phase only)."""
        if self.kind != CONTROLLED_PHASE:
            raise ValueError(f"{self.kind} gate has no angle")
        return 2.0 * math.pi / (1 << self.k)


def gate_count(m: int, d: int) -> int:
    """Number of controlled-phase gates in the depth-d plan on m qubits.

    Stage j retains min(d-1, m-j-1) gates: the first m-d+1 stages keep
    d-1 each and the last d-1 stages keep d-2, ..., 0. d = m gives the
    full-circuit count m(m-1)/2.
    """
    m, d = check_depth(m, d)
    return (m - d + 1) * (d - 1) + (d - 1) * (d - 2) // 2


class CircuitPlan(NamedTuple("CircuitPlan", [("m", int), ("d", int)])):
    """The depth-d truncated QFT on m qubits; its gate list follows from (m, d)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, m: int, d: int):
        check_depth(m, d)
        return super().__new__(cls, m, d)

    @property
    def gates(self) -> tuple[GateOp, ...]:
        """Ordered gate list, generated from (m, d) on each access."""
        gates = []
        for j in range(self.m):
            gates.append(GateOp(HADAMARD, target=j))
            gates.extend(GateOp(CONTROLLED_PHASE, target=j, control=j + k - 1, k=k)
                         for k in range(2, min(self.d, self.m - j) + 1))
        gates.append(GateOp(BIT_REVERSAL))
        return tuple(gates)

    @property
    def controlled_phase_count(self) -> int:
        return sum(g.kind == CONTROLLED_PHASE for g in self.gates)


def plan_truncated_qft(m: int, d: int) -> CircuitPlan:
    """Build the depth-d truncated QFT plan. d is validated, never clamped."""
    return CircuitPlan(m, d)


def check_int(name: str, value, low: int, high: int | None = None) -> int:
    """`value` as an int; ValueError naming `name` unless an integer (not a
    bool) with low <= value (<= high, when given)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if high is None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must lie in {low}..{high}, got {value}")
    return int(value)


def check_depth(m: int, d: int) -> tuple[int, int]:
    """(m, d) as ints; ValueError unless integers with 1 <= d <= m."""
    m = check_int("register size m", m, 1)
    return m, check_int("truncation depth d", d, 1, m)


APPLY_MAX_QUBITS = 24  # 2^24 complex amplitudes = 256 MiB; the desk-scale ceiling


def apply_plan_to_array(amps: np.ndarray, plan: CircuitPlan) -> None:
    """In-place plan application on an array whose last axis is the state axis.

    Leading axes are batch dimensions, so a (batch, 2^m) array runs every
    state through the same plan in one pass. The state axis is viewed, never
    copied, as m length-2 axes, qubit j on the j-th: H mixes the two halves
    of its qubit's axis, CP scales the block where both its qubits read 1,
    and BITREV reverses the order of the m axes. Each state keeps its norm
    to machine precision.
    """
    m = plan.m
    if m > APPLY_MAX_QUBITS:
        raise ValueError(f"statevector application is limited to m <= {APPLY_MAX_QUBITS}")
    if amps.shape[-1] != 1 << m:
        raise ValueError(f"last axis must have length {1 << m}, got {amps.shape[-1]}")
    state = amps.reshape(amps.shape[:-1] + (2,) * m)  # qubit j on axis j - m
    for g in plan.gates:
        # Indexing after an Ellipsis gives views, 0-d ones for a single m = 1 state.
        if g.kind == HADAMARD:
            pair = np.moveaxis(state, g.target - m, -1)
            lo, hi = pair[..., 0], pair[..., 1]
            pair[..., 0], pair[..., 1] = (lo + hi) * _INV_SQRT2, (lo - hi) * _INV_SQRT2
        elif g.kind == CONTROLLED_PHASE:
            block = np.moveaxis(state, (g.control - m, g.target - m), (-2, -1))[..., 1, 1]
            block *= complex(math.cos(g.angle), math.sin(g.angle))
        else:
            qubits = range(-m, 0)
            state[...] = np.moveaxis(state, qubits, qubits[::-1]).copy()


def full_qft_matrix(m: int) -> np.ndarray:
    """Dense DFT unitary with entry (y, x) = exp(2*pi*i*x*y/N)/sqrt(N).

    Test oracle only; refuses m > 8.
    """
    m = check_int("register size m of the dense QFT test oracle", m, 1, 8)
    n = 1 << m
    y = np.arange(n)
    return np.exp(2j * np.pi * np.outer(y, y) / n) / math.sqrt(n)


def plan_unitary(plan: CircuitPlan) -> np.ndarray:
    """Dense unitary realized by a plan, built column-by-column (m <= 8)."""
    if plan.m > 8:
        raise ValueError(f"dense plan unitary is limited to m <= 8 (got {plan.m})")
    n = 1 << plan.m
    basis = np.eye(n, dtype=np.complex128)  # row x is the basis state |x>
    apply_plan_to_array(basis, plan)
    return basis.T.copy()


def serialize_plan(plan: CircuitPlan) -> str:
    """Line-oriented text form: header `m=<m> d=<d>`, one gate per line."""
    lines = [f"m={plan.m} d={plan.d}"]
    for g in plan.gates:
        if g.kind == HADAMARD:
            lines.append(f"H {g.target}")
        elif g.kind == CONTROLLED_PHASE:
            lines.append(f"CP {g.k} {g.control} {g.target}")
        else:
            lines.append("BITREV")
    return "\n".join(lines) + "\n"

