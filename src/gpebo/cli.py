"""Command line front end: run gain sweeps and emit reports.

Usage example:

    gpebo --scenario c2 --estimator gradient --gamma 1,10,100 \
          --csv out/run.csv --svg out/run.svg

A plain-text config file with ``key = value`` lines can seed any option;
explicit flags override the file.  ``RunConfig``'s fields are the one
option table: each makes one flag and one converter, shared by flag and
file values, and its flag and field names are its file keys.  Scenario
and estimator names are case-insensitive in both.  Bad values are
rejected by the model when :meth:`RunConfig.validate` builds each gain's
scenario, before anything is simulated.  Exit codes: 0 success, 2
configuration problem (including a gain too large for the step, found
after the plant pass), 3 simulation divergence, 4 output file problem.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .excitation import pe_check
from .history import TrajectoryHistory
from .integrate import DivergenceError, StiffnessError, simulate
from .model import MAX_SWEEP_NODES, builtin_scenario
from .report import (
    RunResult,
    emit_csv,
    emit_svg,
    format_pe_summary,
    write_pe_report,
)

class ConfigError(ValueError):
    """Configuration could not be parsed or validated."""


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


def _text(text: str, key: str) -> str:
    return str(text).strip()


def _name(text: str, key: str) -> str:
    return str(text).strip().lower()


def _option(default, convert, metavar, help, flag=None):
    """One row of the option table: a RunConfig field with the converter
    that flag and config-file values share, and the flag's metavar and
    help.  The flag is ``--`` and the field name with dashes unless
    ``flag`` names it."""
    return field(default=default, metadata={
        "convert": convert, "metavar": metavar, "help": help, "flag": flag})


@dataclass
class RunConfig:
    """Fully resolved options for one CLI invocation.

    The fields are the option table: :func:`build_parser` makes one flag
    per field, and a config-file key is a field's flag or field name.
    """

    scenario: str = _option("c1", _name, "{c1,c2,c3}", "built-in benchmark case (default c1)")
    estimator: str = _option("gradient", _name, "{gradient,drem}",
                             "parameter update law (default gradient)")
    gammas: tuple = _option((1.0, 10.0, 100.0), _parse_floats, "G1,G2,...",
                            "comma-separated adaptation gains (default 1,10,100)", flag="gamma")
    step: float = _option(1e-3, _parse_float, "H", "integration step (default 1e-3)")
    horizon: float = _option(30.0, _parse_float, "TF", "final time (default 30)")
    x0: Optional[tuple] = _option(None, _parse_floats, "V1,V2",
                                  "plant initial state (default 1,-1)")
    xi0: Optional[tuple] = _option(None, _parse_floats, "V1,V2",
                                   "observer copy initial state (default 0,0)")
    theta0: Optional[tuple] = _option(None, _parse_floats, "V1,V2",
                                      "initial parameter estimate (default 0,0)")
    csv: Optional[str] = _option(None, _text, "PATH", "write the sweep table here")
    svg: Optional[str] = _option(None, _text, "PATH", "render estimation error curves here")
    pe_window: float = _option(5.0, _parse_float, "T", "excitation window length (default 5)")
    pe_floor: float = _option(1e-4, _parse_float, "D",
                              "excitation eigenvalue floor (default 1e-4)")
    pe_report: Optional[str] = _option(None, _text, "PATH", "write the excitation scan here")

    def scenarios(self) -> list:
        """The built-in scenario of each gain, in the order of ``gammas``."""
        return [builtin_scenario(self.scenario, gamma, estimator=self.estimator,
                                 horizon=self.horizon, step=self.step, x0=self.x0,
                                 xi0=self.xi0, theta_hat0=self.theta0)
                for gamma in self.gammas]

    def validate(self) -> None:
        """Raise ConfigError for options no run may start with.

        Each gain's scenario is built first, so every value the model
        rejects is rejected here.  The rest is what the CLI alone decides:
        positive gains, the excitation-scan options and the sweep's size.
        """
        if not self.gammas:
            raise ConfigError("at least one gamma is required")
        if not all(g > 0.0 for g in self.gammas):
            raise ConfigError("gamma values must be positive")
        try:
            steps = self.scenarios()[0].steps
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 0.0 < self.pe_window < math.inf:
            raise ConfigError("pe-window must be positive and finite")
        if not 0.0 < self.pe_floor < math.inf:
            raise ConfigError("pe-floor must be positive and finite")
        nodes = (steps + 1) * len(self.gammas)
        if nodes > MAX_SWEEP_NODES:
            raise ConfigError(f"the sweep needs {nodes:.10g} grid nodes, more than the limit of "
                              f"{MAX_SWEEP_NODES}; raise step or lower horizon")
        # the scan needs one whole window on the grid t_k = k * step
        grid_end = steps * self.step
        if self.pe_report and self.pe_window > min(self.horizon, grid_end):
            raise ConfigError(f"pe-window {self.pe_window:g} exceeds the horizon {self.horizon:g}")


def _flag(f) -> str:
    return f.metadata["flag"] or f.name.replace("_", "-")


# config-file key, lower case with "_" for "-" -> RunConfig field
_FILE_KEYS = {key.replace("-", "_"): f for f in fields(RunConfig) for key in (f.name, _flag(f))}


def load_config_file(path: str) -> dict:
    """Parse ``key = value`` lines into converted RunConfig field values."""
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
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        f = _FILE_KEYS[key]
        out[f.name] = f.metadata["convert"](value.strip(), _flag(f))
    return out


# flags whose values are numbers, so that a value may start with "-"
_NUMBER_FLAGS = {"--" + _flag(f) for f in fields(RunConfig)
                 if f.metadata["convert"] in (_parse_floats, _parse_float)}


def _starts_negative_number(arg: str) -> bool:
    try:
        float(arg.split(",", 1)[0])
    except ValueError:
        return False
    return arg.startswith("-")


class _Parser(argparse.ArgumentParser):
    """Reads ``--x0 -1,2`` as ``--x0=-1,2``, which argparse would take for
    two flags; ``--x0 --horizon 3`` is still refused for lacking a value."""

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for arg in sys.argv[1:] if args is None else args:
            if joined and joined[-1] in _NUMBER_FLAGS and _starts_negative_number(arg):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gpebo",
        description="Simulate the delayed-measurement state observer benchmark.",
        allow_abbrev=False,  # flags in full, as file keys; a prefix would skip the join
    )
    for f in fields(RunConfig):
        parser.add_argument("--" + _flag(f), dest=f.name, default=None,
                            metavar=f.metadata["metavar"], help=f.metadata["help"])
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="key = value option file; flags override it")
    return parser


def assemble_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, config file, and explicit flags into a RunConfig."""
    values = {}
    if args.config is not None:
        values.update(load_config_file(args.config))
    for f in fields(RunConfig):
        raw = getattr(args, f.name)
        if raw is not None:
            values[f.name] = f.metadata["convert"](raw, _flag(f))
    config = RunConfig(**values)
    config.validate()
    return config


def run(config: RunConfig) -> RunResult:
    """Simulate every gain in the sweep and emit the requested outputs."""
    start = time.perf_counter()
    runs = [simulate(scenario) for scenario in config.scenarios()]
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
            lambda s: np.ones((len(s), 1, 1)),
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
    except StiffnessError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
