"""Command line front end: run gain sweeps and emit reports.

Usage example:

    gpebo --scenario c2 --estimator gradient --gamma 1,10,100 \
          --csv out/run.csv --svg out/run.svg

A plain-text config file with ``key = value`` lines can seed any option;
explicit flags override the file.  Exit codes: 0 success, 2 configuration
problem, 3 simulation divergence, 4 output file problem.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .excitation import pe_check
from .history import TrajectoryHistory
from .integrate import DivergenceError, simulate
from .model import builtin_scenario
from .report import (
    RunResult,
    emit_csv,
    emit_svg,
    format_pe_summary,
    write_pe_report,
)

_SCENARIOS = ("c1", "c2", "c3")
_ESTIMATORS = ("gradient", "drem")
# Grid nodes one sweep may hold, summed over its gains.  A simulation peaks
# near 650 bytes per node (DREM; gradient 440) and keeps 112 bytes per node,
# and the sweep keeps every gain's run, so a sweep at the limit peaks near
# 1.3 GB (measured with tracemalloc on 30 s runs).
MAX_SWEEP_NODES = 2_000_000


class ConfigError(ValueError):
    """Configuration could not be parsed or validated."""


@dataclass
class RunConfig:
    """Fully resolved options for one CLI invocation."""

    scenario: str = "c1"
    estimator: str = "gradient"
    gammas: tuple = (1.0, 10.0, 100.0)
    step: float = 1e-3
    horizon: float = 30.0
    x0: Optional[tuple] = None
    xi0: Optional[tuple] = None
    theta0: Optional[tuple] = None
    csv: Optional[str] = None
    svg: Optional[str] = None
    pe_window: float = 5.0
    pe_floor: float = 1e-4
    pe_report: Optional[str] = None

    def validate(self) -> None:
        if self.scenario not in _SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.estimator not in _ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if not self.gammas:
            raise ConfigError("at least one gamma is required")
        if any(not 0.0 < g < math.inf for g in self.gammas):
            raise ConfigError("gamma values must be positive and finite")
        if not 0.0 < self.step < math.inf:
            raise ConfigError("step must be positive and finite")
        if not 0.0 < self.horizon < math.inf:
            raise ConfigError("horizon must be positive and finite")
        if self.step > self.horizon:
            raise ConfigError("step must not exceed horizon")
        if not 0.0 < self.pe_window < math.inf:
            raise ConfigError("pe-window must be positive and finite")
        if not 0.0 < self.pe_floor < math.inf:
            raise ConfigError("pe-floor must be positive and finite")
        steps = max(1, round(self.horizon / self.step))
        nodes = (steps + 1) * len(self.gammas)
        if nodes > MAX_SWEEP_NODES:
            raise ConfigError(f"the sweep needs {nodes} grid nodes, more than the limit of "
                              f"{MAX_SWEEP_NODES}; raise step or lower horizon")
        # the scan needs one whole window on the grid t_k = k * step
        grid_end = steps * self.step
        if self.pe_report and self.pe_window > min(self.horizon, grid_end):
            raise ConfigError(f"pe-window {self.pe_window:g} exceeds the horizon {self.horizon:g}")
        for name in ("x0", "xi0", "theta0"):
            vec = getattr(self, name)
            if vec is None:
                continue
            if len(vec) != 2:
                raise ConfigError(f"{name} must have 2 components, got {len(vec)}")
            if not all(math.isfinite(v) for v in vec):
                raise ConfigError(f"{name} components must be finite")


def _parse_floats(text: str, key: str) -> tuple:
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key} must contain at least one number")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


_CONVERTERS = {
    "scenario": lambda v, k: str(v).strip().lower(),
    "estimator": lambda v, k: str(v).strip().lower(),
    "gammas": _parse_floats,
    "step": _parse_float,
    "horizon": _parse_float,
    "x0": _parse_floats,
    "xi0": _parse_floats,
    "theta0": _parse_floats,
    "csv": lambda v, k: str(v).strip(),
    "svg": lambda v, k: str(v).strip(),
    "pe_window": _parse_float,
    "pe_floor": _parse_float,
    "pe_report": lambda v, k: str(v).strip(),
}

_FILE_KEY_ALIASES = {"gamma": "gammas"}


def load_config_file(path: str) -> dict:
    """Parse ``key = value`` lines into converted option values."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        key = _FILE_KEY_ALIASES.get(key, key)
        if key not in _CONVERTERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _CONVERTERS[key](value.strip(), key)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpebo",
        description="Simulate the delayed-measurement state observer benchmark.",
    )
    parser.add_argument("--scenario", choices=_SCENARIOS, default=None,
                        help="built-in benchmark case (default c1)")
    parser.add_argument("--estimator", choices=_ESTIMATORS, default=None,
                        help="parameter update law (default gradient)")
    parser.add_argument("--gamma", default=None, metavar="G1,G2,...",
                        help="comma-separated adaptation gains (default 1,10,100)")
    parser.add_argument("--step", default=None, metavar="H",
                        help="integration step (default 1e-3)")
    parser.add_argument("--horizon", default=None, metavar="TF",
                        help="final time (default 30)")
    parser.add_argument("--x0", default=None, metavar="V1,V2",
                        help="plant initial state (default 1,-1)")
    parser.add_argument("--xi0", default=None, metavar="V1,V2",
                        help="observer copy initial state (default 0,0)")
    parser.add_argument("--theta0", default=None, metavar="V1,V2",
                        help="initial parameter estimate (default 0,0)")
    parser.add_argument("--csv", default=None, metavar="PATH",
                        help="write the sweep table here")
    parser.add_argument("--svg", default=None, metavar="PATH",
                        help="render estimation error curves here")
    parser.add_argument("--pe-window", default=None, metavar="T",
                        help="excitation window length (default 5)")
    parser.add_argument("--pe-floor", default=None, metavar="D",
                        help="excitation eigenvalue floor (default 1e-4)")
    parser.add_argument("--pe-report", default=None, metavar="PATH",
                        help="write the excitation scan here")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="key = value option file; flags override it")
    return parser


_FLAG_TO_FIELD = {
    "scenario": "scenario",
    "estimator": "estimator",
    "gamma": "gammas",
    "step": "step",
    "horizon": "horizon",
    "x0": "x0",
    "xi0": "xi0",
    "theta0": "theta0",
    "csv": "csv",
    "svg": "svg",
    "pe_window": "pe_window",
    "pe_floor": "pe_floor",
    "pe_report": "pe_report",
}


def assemble_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, config file, and explicit flags into a RunConfig."""
    values = {}
    if args.config is not None:
        values.update(load_config_file(args.config))
    for flag, field_name in _FLAG_TO_FIELD.items():
        raw = getattr(args, flag)
        if raw is not None:
            values[field_name] = _CONVERTERS[field_name](raw, field_name)
    config = RunConfig(**values)
    config.validate()
    return config


def run(config: RunConfig) -> RunResult:
    """Simulate every gain in the sweep and emit the requested outputs."""
    start = time.perf_counter()
    runs = []
    for gamma in config.gammas:
        scenario = builtin_scenario(
            config.scenario,
            gamma,
            estimator=config.estimator,
            horizon=config.horizon,
            step=config.step,
            x0=config.x0,
            xi0=config.xi0,
            theta_hat0=config.theta0,
        )
        runs.append(simulate(scenario))
    duration = time.perf_counter() - start

    result = RunResult(
        scenario_id=config.scenario,
        estimator=config.estimator,
        gammas=list(config.gammas),
        runs=runs,
        duration=duration,
    )
    for gamma, rr in result.ordered():
        final_err = float(abs(rr.estimation_error[-1]).max())
        final_terr = float(abs(rr.theta_error[-1]).max())
        print(
            f"scenario={config.scenario} estimator={config.estimator} "
            f"gamma={gamma:g} nodes={len(rr.t)} "
            f"final_state_err={final_err:.3e} final_theta_err={final_terr:.3e}"
        )
    print(f"simulated {len(runs)} run(s) in {duration:.2f}s")

    if config.csv:
        emit_csv(result, config.csv)
        print(f"wrote {config.csv}")
    if config.svg:
        emit_svg(result, config.svg)
        print(f"wrote {config.svg}")
    if config.pe_report:
        first = result.ordered()[0][1]
        # scan the delayed regressor psi = C(phi) Phi(phi) the estimator saw:
        # one-row output maps read through a unit C
        report = pe_check(
            TrajectoryHistory.from_grid(first.t, first.psi[:, None, :]),
            lambda s: np.ones((1, 1)),
            config.pe_window,
            config.pe_floor,
        )
        write_pe_report(report, config.pe_report)
        print(format_pe_summary(report))
        print(f"wrote {config.pe_report}")
    return result


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = assemble_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        run(config)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
