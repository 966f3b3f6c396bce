"""The three workloads: inputs drawn from a seed, one timed pass, its checks.

A pass is one whole round of a workload's operations.  Every pass of a run
uses the same inputs, so every pass must return the same outputs as the
first; the first pass's outputs are checked against ``checks.py`` and
``reference.py`` once the timed passes are over.
"""

from __future__ import annotations

import io
import math
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import checks

SCENARIOS = ("c1", "c2", "c3")
STEP = 1e-3               # the CLI's default step; never passed explicitly
SWEEP_HORIZON = 3.0       # c3's delay map leaves its clamp at t = 1.87
PE_HORIZON = 4.0
PE_WINDOWS = (1.0, 2.0)   # pe_check window lengths
PE_FLOOR = 1e-4
DELAYED_WINDOW = 2.0      # delayed_pe_integral at every start of the T=2 scan


@dataclass(frozen=True)
class Inputs:
    """Initial values for one scenario, as plain floats."""

    x0: tuple
    xi0: tuple
    theta0: tuple

    @property
    def theta(self) -> np.ndarray:
        """The constant the estimators look for: xi(0) - x(0)."""
        return np.subtract(self.xi0, self.x0)


def draw_inputs(seed: int) -> dict:
    """Per scenario: x0 in [-2, 2]^2, xi0 = x0 + theta with |theta| in
    [0.5, 2] at a uniform angle, theta0 in [-1, 1]^2; six decimals each."""
    rng = np.random.default_rng(seed)
    out = {}
    for sid in SCENARIOS:
        x0 = rng.uniform(-2.0, 2.0, 2)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(0.5, 2.0)
        xi0 = x0 + radius * np.array([math.cos(angle), math.sin(angle)])
        theta0 = rng.uniform(-1.0, 1.0, 2)
        out[sid] = Inputs(*(tuple(round(float(v), 6) for v in vec) for vec in (x0, xi0, theta0)))
    return out


def _csv_arg(vec) -> str:
    return ",".join(repr(v) for v in vec)


@dataclass
class PassRecord:
    """What one pass did and produced."""

    scenario_walls: list = field(default_factory=list)  # wall time per scenario
    scenario_sims: list = field(default_factory=list)   # time in simulate per scenario
    steps: int = 0          # integration steps, summed over (scenario, gain) runs
    windows: int = 0        # excitation windows evaluated
    window_s: float = 0.0
    ops: int = 0
    failed: int = 0         # operations that did not complete
    yardsticks: list = field(default_factory=list)  # per scenario, see run.measure
    runs: dict = field(default_factory=dict)      # (sid, gamma) -> SimulationResult
    files: dict = field(default_factory=dict)     # (sid, "csv" | "svg") -> path
    pe: dict = field(default_factory=dict)        # (sid, T) -> ExcitationReport
    delayed: dict = field(default_factory=dict)   # (sid, start) -> Gramian
    liouville: dict = field(default_factory=dict)  # sid -> float


class CliSweep:
    """``gpebo.cli.main`` in-process on c1, c2 and c3."""

    def __init__(self, name, estimator, gammas, write_files):
        self.name = name
        self.estimator = estimator
        self.gammas = gammas
        self.write_files = write_files
        self.horizon = SWEEP_HORIZON

    def argv(self, sid: str, inp: Inputs, outdir: str) -> list:
        argv = ["--scenario", sid, "--estimator", self.estimator,
                "--gamma", ",".join(f"{g:g}" for g in self.gammas),
                "--horizon", f"{self.horizon:g}",
                # "=" keeps argparse from reading a leading minus as a flag.
                f"--x0={_csv_arg(inp.x0)}", f"--xi0={_csv_arg(inp.xi0)}",
                f"--theta0={_csv_arg(inp.theta0)}"]
        if self.write_files:
            argv += ["--csv", os.path.join(outdir, f"{sid}.csv"),
                     "--svg", os.path.join(outdir, f"{sid}.svg")]
        return argv

    def probe_spec(self, inputs: dict) -> dict:
        return {"cli": [self.argv(sid, inputs[sid], ".") for sid in SCENARIOS]}

    def run_pass(self, api, inputs: dict, outdir: str, pause) -> PassRecord:
        """One CLI invocation per scenario; ``pause()`` runs before each
        and after the last, outside the timed intervals.  The time in
        ``simulate`` is measured here, around the CLI's calls to it."""
        import gpebo.cli as cli

        rec = PassRecord()
        results = {}
        sim_s = []
        inner_run, inner_simulate = cli.run, cli.simulate
        clock = time.perf_counter

        def capture(config):
            results[config.scenario] = inner_run(config)
            return results[config.scenario]

        def timed_simulate(scenario):
            start = clock()
            try:
                return inner_simulate(scenario)
            finally:
                sim_s[-1] += clock() - start

        cli.run, cli.simulate = capture, timed_simulate
        try:
            codes = []
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                for sid in SCENARIOS:
                    pause()
                    sim_s.append(0.0)
                    start = clock()
                    codes.append(api.cli_main(self.argv(sid, inputs[sid], outdir)))
                    rec.scenario_walls.append(clock() - start)
                pause()
        finally:
            cli.run, cli.simulate = inner_run, inner_simulate
        rec.scenario_sims = sim_s
        for sid, code in zip(SCENARIOS, codes):
            rec.ops += 1
            if code != 0 or sid not in results:
                rec.failed += 1
                continue
            for gamma, run in results[sid].ordered():
                rec.runs[(sid, gamma)] = run
                rec.steps += len(run.t) - 1
            if self.write_files:
                for kind in ("csv", "svg"):
                    rec.files[(sid, kind)] = os.path.join(outdir, f"{sid}.{kind}")
        return rec

    def check(self, rec: PassRecord, inputs: dict, refs: dict):
        """Faults of the first pass and the number of its failed operations."""
        import reference

        faults = []
        for sid in SCENARIOS:
            inp = inputs[sid]
            runs = sorted((g, r) for (s, g), r in rec.runs.items() if s == sid)
            for gamma, res in runs:
                tag = f"{sid} gamma={gamma:g}: "
                found = _plant_faults(res, inp, refs[sid])
                theta_hat_ref = reference.estimate(refs[sid], sid, self.estimator, gamma,
                                                   inp.theta, inp.theta0, res.t)
                if self.estimator == "gradient":
                    found += checks.gradient_lyapunov(res, inp.theta, gamma)
                    found += checks.matches_estimate(res, theta_hat_ref, inp.theta)
                else:
                    found += checks.drem_monotone(res, inp.theta)
                    found += checks.drem_converges(res, theta_hat_ref, inp.theta)
                faults += [tag + f for f in found]
            if self.write_files and runs:
                faults += [f"{sid}: {f}" for f in
                           checks.csv_round_trip(rec.files[(sid, "csv")], runs, inp.theta)]
                faults += [f"{sid}: {f}" for f in
                           checks.svg_vertices(rec.files[(sid, "svg")], runs)]
        return faults, 0


def _plant_faults(res, inp: Inputs, ref):
    faults = checks.grid(res, STEP)
    if not np.array_equal(res.theta, inp.theta):
        faults.append("theta differs from xi0 - x0")
    faults += checks.reconstruction_identity(res, inp.theta)
    faults += checks.det_one(res.Phi)
    faults += checks.matches_reference(res, ref)
    return faults


class PeAudit:
    """The library excitation path from the README quickstart."""

    name = "pe-audit"
    horizon = PE_HORIZON

    def delayed_starts(self) -> np.ndarray:
        # The start grid pe_check scans for a window of DELAYED_WINDOW.
        stride = DELAYED_WINDOW / 10.0
        count = int(np.floor((PE_HORIZON - DELAYED_WINDOW) / stride + 1e-9)) + 1
        return stride * np.arange(count)

    def probe_spec(self, inputs: dict) -> dict:
        return {"library": [
            {"scenario": sid, "horizon": PE_HORIZON, "x0": inputs[sid].x0,
             "xi0": inputs[sid].xi0, "theta0": inputs[sid].theta0}
            for sid in SCENARIOS]}

    def run_pass(self, api, inputs: dict, outdir: str, pause) -> PassRecord:
        """The library calls, one scenario at a time; ``pause()`` runs
        before each scenario and after the last, outside the timed
        intervals."""
        rec = PassRecord()
        clock = time.perf_counter
        for sid in SCENARIOS:
            pause()
            start = clock()
            inp = inputs[sid]
            scenario = api.builtin_scenario(sid, 0.0, horizon=PE_HORIZON, x0=inp.x0,
                                            xi0=inp.xi0, theta_hat0=inp.theta0)
            t0 = clock()
            res = api.simulate(scenario)
            rec.scenario_sims.append(clock() - t0)
            rec.runs[(sid, 0.0)] = res
            rec.steps += len(res.t) - 1
            hist = res.phi_history()
            C = scenario.system.C
            t0 = clock()
            for T in PE_WINDOWS:
                report = api.pe_check(hist, C, T, PE_FLOOR)
                rec.pe[(sid, T)] = report
                rec.windows += len(report.starts)
            for s in self.delayed_starts():
                rec.delayed[(sid, float(s))] = api.delayed_pe_integral(
                    hist, C, float(s), DELAYED_WINDOW, scenario.delay)
            rec.window_s += clock() - t0
            rec.windows += len(self.delayed_starts())
            rec.liouville[sid] = api.liouville_det(hist, scenario.system.A)
            rec.scenario_walls.append(clock() - start)
        pause()
        rec.ops = len(SCENARIOS) * (2 + len(PE_WINDOWS) + len(self.delayed_starts()))
        return rec

    def check(self, rec: PassRecord, inputs: dict, refs: dict):
        """Faults of the first pass and the number of its failed operations.

        A ``delayed_pe_integral`` window that disagrees with the direct
        tau-domain quadrature but matches the function's documented
        formula is a failed operation, not a fault: it is the known
        weighting defect of that function (see README).
        """
        import reference

        faults = []
        failed = 0
        for sid in SCENARIOS:
            inp, ref = inputs[sid], refs[sid]
            res = rec.runs[(sid, 0.0)]
            found = _plant_faults(res, inp, ref) + checks.frozen(res)
            found += checks.liouville_matches(rec.liouville[sid], res.Phi)
            for T in PE_WINDOWS:
                found += checks.pe_report_matches(
                    rec.pe[(sid, T)],
                    lambda s, width: reference.output_gramians(ref, s, width), PE_FLOOR)
            errors = []
            bad = 0
            for (s_id, s), G in rec.delayed.items():
                if s_id != sid:
                    continue
                G_time = reference.delayed_gramian(ref, sid, s, DELAYED_WINDOW)
                G_formula = reference.delayed_formula_gramian(ref, sid, s, DELAYED_WINDOW)
                window_faults, window_failed = checks.delayed_window(G, G_time, G_formula)
                found += [f"delayed window at {s:g}: {f}" for f in window_faults]
                bad += window_failed
                errors.append(checks.delayed_error(G, G_time))
            faults += [f"{sid}: {f}" for f in found]
            failed += bad
            print(f"delayed {sid}: {bad}/{len(errors)} windows off the time-domain reference, "
                  f"relative error {min(errors):.3g}..{max(errors):.3g}")
        return faults, failed


WORKLOADS = {
    w.name: w
    for w in (
        CliSweep("gradient-sweep", "gradient", (1.0, 10.0, 100.0), write_files=True),
        CliSweep("drem-track", "drem", (100.0,), write_files=False),
        PeAudit(),
    )
}


def same_outputs(first: PassRecord, other: PassRecord) -> list:
    """Faults where a later pass's outputs differ from the first pass's."""
    faults = []
    if first.runs.keys() != other.runs.keys():
        return ["runs differ between passes"]
    for key, a in first.runs.items():
        b = other.runs[key]
        for name in ("t", "x", "xi", "Phi", "theta_hat"):
            if not np.array_equal(getattr(a, name), getattr(b, name)):
                faults.append(f"{key} {name} differs between passes")
    for key, path in first.files.items():
        with open(path, "rb") as fa, open(other.files[key], "rb") as fb:
            if fa.read() != fb.read():
                faults.append(f"{key} file differs between passes")
    for key, rep in first.pe.items():
        o = other.pe[key]
        if not (np.array_equal(rep.min_eig_output, o.min_eig_output)
                and np.array_equal(rep.min_eig_regressor, o.min_eig_regressor)):
            faults.append(f"pe_check {key} differs between passes")
    for key, G in first.delayed.items():
        if not np.array_equal(G, other.delayed[key]):
            faults.append(f"delayed {key} differs between passes")
    if first.liouville != other.liouville:
        faults.append("liouville_det differs between passes")
    return faults
