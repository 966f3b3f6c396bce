"""State observation for linear time-varying plants with delayed outputs.

The observer runs a copy of the plant alongside its transition matrix,
reduces state reconstruction to estimating the constant initial mismatch
between copy and plant, and recovers the state algebraically from the
estimate.  The package bundles the plant/scenario definitions, the
three-pass fixed-step integrator, gradient and decoupled (regressor-mixing)
estimators, excitation diagnostics, closed-form reference solutions, and
a CLI that renders sweep reports.  The CLI lives in ``gpebo.cli`` and is
not imported here, so ``python -m gpebo.cli`` runs it without a warning.
"""

from .model import (
    DelaySpec,
    NamedScenario,
    SystemSpec,
    benchmark_system,
    builtin_scenario,
    eval_system,
)
from .history import TrajectoryHistory
from .observer import gradient_update
from .drem import (
    adjugate,
    default_ext_delays,
    drem_update,
    extend_regressor,
    mix,
)
from .integrate import DivergenceError, SimulationResult, StiffnessError, simulate
from .excitation import (
    ExcitationReport,
    pe_check,
    pe_integral,
    delayed_pe_integral,
)
from .oracle import LtiOracle, liouville_det, matrix_exponential
from .report import RunResult, emit_csv, emit_svg, format_pe_summary, write_pe_report

__version__ = "0.1.0"

__all__ = [
    "SystemSpec",
    "DelaySpec",
    "NamedScenario",
    "benchmark_system",
    "builtin_scenario",
    "eval_system",
    "TrajectoryHistory",
    "gradient_update",
    "default_ext_delays",
    "adjugate",
    "extend_regressor",
    "mix",
    "drem_update",
    "SimulationResult",
    "DivergenceError",
    "StiffnessError",
    "simulate",
    "ExcitationReport",
    "pe_integral",
    "delayed_pe_integral",
    "pe_check",
    "LtiOracle",
    "matrix_exponential",
    "liouville_det",
    "RunResult",
    "emit_csv",
    "emit_svg",
    "write_pe_report",
    "format_pe_summary",
]
