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
retained controlled-phase count without building a plan. check_depth is
the one validator of the integers (m, d) for every layer.

Statevector application defines what a plan does. Outcome distributions
are computed in tqft.qpe from a product formula instead, and tests check
that formula against apply_plan_to_array and the dense unitaries here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

HADAMARD = "H"
CONTROLLED_PHASE = "CP"
BIT_REVERSAL = "BITREV"


@dataclass(frozen=True)
class GateOp:
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


@dataclass(frozen=True)
class CircuitPlan:
    """The depth-d truncated QFT on m qubits; its gate list follows from (m, d)."""

    m: int
    d: int

    def __post_init__(self):
        check_depth(self.m, self.d)

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


def check_depth(m: int, d: int = 1) -> tuple[int, int]:
    """(m, d) as ints; ValueError unless integers with 1 <= d <= m (d = 1: m alone)."""
    if not isinstance(m, (int, np.integer)) or not isinstance(d, (int, np.integer)):
        raise ValueError(f"register size and depth must be integers, got m={m!r}, d={d!r}")
    if m < 1:
        raise ValueError(f"register size must be >= 1, got {m}")
    if not 1 <= d <= m:
        raise ValueError(f"truncation depth must satisfy 1 <= d <= m, got d={d}, m={m}")
    return int(m), int(d)


APPLY_MAX_QUBITS = 24  # 2^24 complex amplitudes = 256 MiB; the desk-scale ceiling


def bit_reversal_permutation(m: int) -> np.ndarray:
    """Index permutation rev with rev[y] = y read back in reversed bit order."""
    idx = np.arange(1 << m)
    rev = np.zeros_like(idx)
    for b in range(m):
        rev |= ((idx >> b) & 1) << (m - 1 - b)
    return rev


def apply_plan_to_array(amps: np.ndarray, plan: CircuitPlan, inverse: bool = False) -> None:
    """In-place plan application on an array whose last axis is the state axis.

    Leading axes are batch dimensions, so a (batch, 2^m) array runs every
    state through the same plan in one pass. The inverse direction runs the
    gates in reverse order with conjugated phase angles; Hadamard and the
    bit-reversal permutation are their own inverses. Each state keeps its
    norm to machine precision.
    """
    m = plan.m
    if m > APPLY_MAX_QUBITS:
        raise ValueError(f"statevector application is limited to m <= {APPLY_MAX_QUBITS}")
    if amps.shape[-1] != 1 << m:
        raise ValueError(f"last axis must have length {1 << m}, got {amps.shape[-1]}")
    gates = reversed(plan.gates) if inverse else plan.gates
    sign = -1.0 if inverse else 1.0
    for g in gates:
        if g.kind == HADAMARD:
            _apply_hadamard(amps, m, g.target)
        elif g.kind == CONTROLLED_PHASE:
            _apply_controlled_phase(amps, m, g.control, g.target, sign * g.angle)
        else:
            amps[...] = amps[..., bit_reversal_permutation(m)]


def _apply_hadamard(amps: np.ndarray, m: int, target: int) -> None:
    b = m - 1 - target  # bit position from the least significant end
    n = 1 << m
    view = amps.reshape(amps.shape[:-1] + (n >> (b + 1), 2, 1 << b))
    a0 = view[..., 0, :].copy()
    a1 = view[..., 1, :]
    view[..., 0, :] = (a0 + a1) * _INV_SQRT2
    view[..., 1, :] = (a0 - a1) * _INV_SQRT2


def _apply_controlled_phase(amps: np.ndarray, m: int, control: int, target: int,
                            angle: float) -> None:
    # Diagonal gate: multiply amplitudes with both qubit bits set. Exposing
    # the two bits as length-2 axes makes that a strided sub-block multiply.
    b_hi = m - 1 - min(control, target)
    b_lo = m - 1 - max(control, target)
    n = 1 << m
    view = amps.reshape(
        amps.shape[:-1] + (n >> (b_hi + 1), 2, (1 << b_hi) >> (b_lo + 1), 2, 1 << b_lo)
    )
    view[..., 1, :, 1, :] *= complex(math.cos(angle), math.sin(angle))


def full_qft_matrix(m: int) -> np.ndarray:
    """Dense DFT unitary with entry (y, x) = exp(2*pi*i*x*y/N)/sqrt(N).

    Test oracle only; refuses m > 8.
    """
    if not 1 <= m <= 8:
        raise ValueError(f"dense QFT matrix is a test oracle, limited to 1 <= m <= 8 (got {m})")
    n = 1 << m
    y = np.arange(n)
    return np.exp(2j * np.pi * np.outer(y, y) / n) / math.sqrt(n)


def plan_unitary(plan: CircuitPlan, inverse: bool = False) -> np.ndarray:
    """Dense unitary realized by a plan, built column-by-column (m <= 8)."""
    if plan.m > 8:
        raise ValueError(f"dense plan unitary is limited to m <= 8 (got {plan.m})")
    n = 1 << plan.m
    basis = np.eye(n, dtype=np.complex128)  # row x is the basis state |x>
    apply_plan_to_array(basis, plan, inverse=inverse)
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


def parse_plan(text: str) -> CircuitPlan:
    """Parse the serialize_plan format.

    The body must be exactly the gate list of the plan its header names;
    otherwise the error names the first differing line. Blank lines and
    runs of whitespace are ignored.
    """
    numbered = [(no, " ".join(ln.split())) for no, ln in enumerate(text.splitlines(), 1)
                if ln.strip()]
    if not numbered:
        raise ValueError("empty plan text")
    header = numbered[0][1]
    try:
        fields = dict(part.split("=", 1) for part in header.split())
        m, d = int(fields["m"]), int(fields["d"])
    except (ValueError, KeyError) as exc:
        raise ValueError(f"malformed plan header {header!r}") from exc
    plan = plan_truncated_qft(m, d)
    # An empty string marks the end on both sides: no normalized line is empty.
    expected = serialize_plan(plan).splitlines()[1:] + [""]
    found = numbered[1:] + [(numbered[-1][0] + 1, "")]
    for want, (no, got) in zip(expected, found):
        if got != want:
            raise ValueError(f"plan line {no} does not match m={m} d={d}: expected "
                             f"{want or 'end of plan'!r}, found {got or 'end of text'!r}")
    return plan
