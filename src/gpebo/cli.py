"""Command line front end: run gain sweeps and emit reports.

Usage example:

    gpebo --scenario c2 --estimator gradient --gamma 1,10,100 \
          --csv out/run.csv --svg out/run.svg

A plain-text config file with ``key = value`` lines can seed any option;
explicit flags override the file.  Each flag, each file field and each gain
is given once; a repeat is refused.  ``RunConfig``'s fields are the one
option table: each makes one flag and names the plain parser (``float``,
``str``, ``str.lower`` or ``_floats``) that reads its stripped flag and
file values, and its flag and field names are its file keys.  A value its
parser refuses exits 2 naming the flag and, from a file, the file and
line.  Scenario and estimator names are case-insensitive in both.  Bad
values are rejected by the model when :meth:`RunConfig.validate` builds
each gain's scenario, before anything is simulated.  Exit codes: 0 success, 2
configuration problem (including a gain too large for the step, found
after the plant pass), 3 simulation divergence, 4 output file problem
(a path that is empty or a directory, or whose directory is missing, is
refused before anything is simulated).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .excitation import pe_check
from .history import TrajectoryHistory
from .integrate import DivergenceError, StiffnessError, simulate
from .model import MAX_SWEEP_NODES, _finite, builtin_scenario
from .report import (
    RunResult,
    emit_csv,
    emit_svg,
    format_pe_summary,
    write_pe_report,
)

class ConfigError(ValueError):
    """Configuration could not be parsed or validated."""


def _floats(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("must contain at least one number")
    return tuple(float(p) for p in parts)


def _option(default, convert, metavar, help, flag=None):
    """One row of the option table: a RunConfig field with the parser of
    its flag and config-file text, the flag's metavar and its help.  The
    flag is ``--`` and the field name with dashes unless ``flag`` names it."""
    return field(default=default, metadata={
        "convert": convert, "metavar": metavar, "help": help, "flag": flag})


@dataclass
class RunConfig:
    """Fully resolved options for one CLI invocation.

    The fields are the option table: :func:`build_parser` makes one flag
    per field, and a config-file key is a field's flag or field name.
    """

    scenario: str = _option("c1", str.lower, "{c1,c2,c3}", "built-in benchmark case (default c1)")
    estimator: str = _option("gradient", str.lower, "{gradient,drem}",
                             "parameter update law (default gradient)")
    gammas: tuple = _option((1.0, 10.0, 100.0), _floats, "G1,G2,...",
                            "comma-separated adaptation gains (default 1,10,100)", flag="gamma")
    step: float = _option(1e-3, float, "H", "integration step (default 1e-3)")
    horizon: float = _option(30.0, float, "TF", "final time (default 30)")
    x0: Optional[tuple] = _option(None, _floats, "V1,V2", "plant initial state (default 1,-1)")
    xi0: Optional[tuple] = _option(None, _floats, "V1,V2",
                                   "observer copy initial state (default 0,0)")
    theta0: Optional[tuple] = _option(None, _floats, "V1,V2",
                                      "initial parameter estimate (default 0,0)")
    csv: Optional[str] = _option(None, str, "PATH", "write the sweep table here")
    svg: Optional[str] = _option(None, str, "PATH", "render estimation error curves here")
    pe_window: float = _option(5.0, float, "T", "excitation window length (default 5)")
    pe_floor: float = _option(1e-4, float, "D", "excitation eigenvalue floor (default 1e-4)")
    pe_report: Optional[str] = _option(None, str, "PATH", "write the excitation scan here")

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
        repeated = [g for k, g in enumerate(self.gammas) if g in self.gammas[:k]]
        if repeated:
            raise ConfigError(f"gamma {repeated[0]:g} given twice")
        try:
            for gamma in self.gammas:
                _finite("gamma", gamma, low=0.0, strict=True)
            steps = self.scenarios()[0].steps
            _finite("pe-window", self.pe_window, low=0.0, strict=True)
            _finite("pe-floor", self.pe_floor, low=0.0, strict=True)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        nodes = (steps + 1) * len(self.gammas)
        if nodes > MAX_SWEEP_NODES:
            raise ConfigError(f"the sweep needs {nodes:.10g} grid nodes, more than the limit of "
                              f"{MAX_SWEEP_NODES}; raise step or lower horizon")
        # the scan needs one whole window on the grid t_k = k * step, and its
        # stride T / 10 no shorter than a step: at most one start per node
        end = min(self.horizon, steps * self.step)
        if self.pe_report and self.pe_window > end:
            what = "the horizon" if end == self.horizon else "the grid's last node"
            raise ConfigError(f"pe-window {self.pe_window:g} exceeds {what} {end:g}")
        if self.pe_report and self.pe_window < 10.0 * self.step:
            raise ConfigError(f"pe-window {self.pe_window:g} is shorter than 10 steps")


def _flag(f) -> str:
    return f.metadata["flag"] or f.name.replace("_", "-")


def _convert(f, text: str, where: str = ""):
    """``text``, stripped, read by field ``f``'s converter; a value it
    refuses raises ConfigError naming the flag after ``where``."""
    try:
        return f.metadata["convert"](text.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}{_flag(f)}: {exc}") from None


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
        if f.name in out:
            raise ConfigError(f"{path}:{lineno}: {_flag(f)} given twice")
        out[f.name] = _convert(f, value, where=f"{path}:{lineno}: ")
    return out


# flags whose values are numbers, so that a value may start with "-"
_NUMBER_FLAGS = {"--" + _flag(f) for f in fields(RunConfig)
                 if f.metadata["convert"] in (_floats, float)}


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


class _Once(argparse.Action):
    """Stores a flag's value, refusing the flag given a second time."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "given twice")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gpebo",
        description="Simulate the delayed-measurement state observer benchmark.",
        allow_abbrev=False,  # flags in full, as file keys; a prefix would skip the join
    )
    for f in fields(RunConfig):
        parser.add_argument("--" + _flag(f), dest=f.name, default=None, action=_Once,
                            metavar=f.metadata["metavar"], help=f.metadata["help"])
    parser.add_argument("--config", default=None, metavar="PATH", action=_Once,
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
            values[f.name] = _convert(f, raw)
    config = RunConfig(**values)
    config.validate()
    return config


def run(config: RunConfig) -> RunResult:
    """Simulate every gain in the sweep and emit the requested outputs."""
    paths = [p for p in (config.csv, config.svg, config.pe_report) if p is not None]
    for k, path in enumerate(paths):
        if not path or os.path.isdir(path):
            raise OSError(f"output path {path!r} is empty or a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(f"no directory to write {path} in")
        if os.path.realpath(path) in map(os.path.realpath, paths[:k]):
            raise OSError(f"output path {path!r} is given for two outputs")
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
        final_err = float(abs(rr.x[-1] - rr.xhat_at(-1)).max())
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
