"""Truncated quantum Fourier transforms with hardware-aware depth selection.

The package simulates phase estimation built on depth-truncated QFT
circuits, bounds the distributional error of the truncation, picks depths
from device error rates, and benchmarks the whole stack on a small
transverse-field Ising chain. `python -m tqft --help` lists the
experiment harness.
"""

from .calibration import (
    DEFAULT_NOISE_CONSTANT,
    DEFAULT_PLATFORMS,
    ErrorBudget,
    PlatformCalibration,
    PlatformRow,
    cliff_depth,
    crossover_error_rate,
    equal_budget_depth,
    error_budget,
    load_platforms,
    optimal_depth,
    platform_report,
    tvd_bound,
)
from .circuits import (
    CircuitPlan,
    GateOp,
    full_qft_matrix,
    gate_count,
    plan_truncated_qft,
    plan_unitary,
    serialize_plan,
)
from .numerics import (
    SplitMix64,
    circular_distance,
    circular_distance_array,
    jacobi_eigh,
)
from .qpe import (
    PhaseDistribution,
    closed_form_full_distribution,
    default_phase_sample,
    grid_phases,
    max_tvd,
    mean_success_probability,
    phase_distribution,
    phase_distributions,
    random_phases,
    sample_outcomes,
    success_probability,
)
from .tfim import (
    QpeEnergyResult,
    TfimSpec,
    build_hamiltonian,
    decode_phase,
    encode_phase,
    qpe_energy_experiment,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "SplitMix64",
    "circular_distance",
    "circular_distance_array",
    "jacobi_eigh",
    "CircuitPlan",
    "GateOp",
    "full_qft_matrix",
    "gate_count",
    "plan_truncated_qft",
    "plan_unitary",
    "serialize_plan",
    "PhaseDistribution",
    "closed_form_full_distribution",
    "default_phase_sample",
    "grid_phases",
    "max_tvd",
    "mean_success_probability",
    "phase_distribution",
    "phase_distributions",
    "random_phases",
    "sample_outcomes",
    "success_probability",
    "DEFAULT_NOISE_CONSTANT",
    "DEFAULT_PLATFORMS",
    "ErrorBudget",
    "PlatformCalibration",
    "PlatformRow",
    "cliff_depth",
    "crossover_error_rate",
    "equal_budget_depth",
    "error_budget",
    "load_platforms",
    "optimal_depth",
    "platform_report",
    "tvd_bound",
    "QpeEnergyResult",
    "TfimSpec",
    "build_hamiltonian",
    "decode_phase",
    "encode_phase",
    "qpe_energy_experiment",
    "spectrum",
    "__version__",
]
