"""State observation for linear time-varying plants with delayed outputs.

The observer runs a copy of the plant alongside its transition matrix,
reduces state reconstruction to estimating the constant initial mismatch
between copy and plant, and recovers the state algebraically from the
estimate.  The package bundles the plant/scenario definitions, the
three-pass fixed-step integrator, gradient and decoupled (regressor-mixing)
estimators, excitation diagnostics, the determinant certificate, and a CLI
that renders sweep reports.  The CLI lives in ``gpebo.cli`` and is
not imported here, so ``python -m gpebo.cli`` runs it without a warning.
"""

from .model import (
    DelaySpec,
    NamedScenario,
    SystemSpec,
    builtin_scenario,
    eval_system,
)
from .history import TrajectoryHistory
from .integrate import (
    DivergenceError,
    SimulationResult,
    StiffnessError,
    adjugate,
    mix,
    simulate,
)
from .excitation import (
    ExcitationReport,
    pe_check,
    pe_integral,
    delayed_pe_integral,
)
from .oracle import liouville_det
from .report import RunResult, emit_csv, emit_svg, format_pe_summary, write_pe_report

__version__ = "0.1.0"

__all__ = [
    "SystemSpec",
    "DelaySpec",
    "NamedScenario",
    "builtin_scenario",
    "eval_system",
    "TrajectoryHistory",
    "adjugate",
    "mix",
    "SimulationResult",
    "DivergenceError",
    "StiffnessError",
    "simulate",
    "ExcitationReport",
    "pe_integral",
    "delayed_pe_integral",
    "pe_check",
    "liouville_det",
    "RunResult",
    "emit_csv",
    "emit_svg",
    "write_pe_report",
    "format_pe_summary",
]
