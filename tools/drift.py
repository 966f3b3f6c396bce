"""Largest output change of this working tree against a git ref.

    python tools/drift.py --against HEAD~1 [--bound 1e-12]

Extracts ``<ref>`` with ``git archive`` into a temporary directory and
runs one probe in a subprocess on each tree, importing that tree's
``src/gpebo``.  The probe records:

- the 21 default-horizon runs, c1-c3 x gradient gamma 0/1/10/100 and
  DREM 1/10/100: x, xi, Phi, theta_hat, psi and y_reg;
- the same six arrays of a 30 s DREM run at gamma 10 on the 4-state plant
  of :func:`drem4_scenario`, which mixes 4 x 4 extended regressors;
- the same six arrays of a 2 s gradient run at gamma 10 on the two-output
  plant of :func:`q2_scenario`, whose psi is 2 x 2;
- the same six arrays of two 30 s DREM runs whose lag is off the stage
  grid, so that its rows are looked up rather than read from row 0's delay
  line: c3 at gamma 10 with h = 3e-3 (lag 0.5), and c1 at gamma 100 with
  h = 1e-2 and lag 4e-3, shorter than a step, as ``offgrid/<sid>``;
- on 4 s open-loop c1-c3 runs: ``pe_check``'s smallest eigenvalues at
  T = 1 and 2, at T = 1.2345 (21 of its 23 starts off the nodes) and at
  T = 0.0015 (26,657 windows of one or two inner nodes each),
  ``pe_integral``'s two Gramians (flattened, q x q then n x n, one row
  per window) and ``delayed_pe_integral`` at starts 0, 0.2, ..., 2 with
  T = 2, and ``liouville_det``;
- on the same runs, ``phi_history()`` looked up at every node, at 200
  seeded times between them and at the last node, as ``history/<sid>/phi``;
- the lookup alone, as ``history/synthetic``: ``from_grid`` on a seeded,
  non-uniform grid of 400 nodes holding 3 x 2 matrices, looked up at every
  node, at 1,000 seeded times between them and at the last node, so a
  change to the plant pass cannot move it;
- the bytes of the CLI's CSV, SVG and excitation report for c1-c3 with
  either law at gammas 1, 10 and 100 over 10 s;
- the refusal time ``StiffnessError.t`` (nan if the run runs) of the
  A = -3000 I plant at h = 1e-3, of c1 and c3 with the gradient law at
  gamma 1000 over 10 s and 30 s, of c1 with DREM at gamma 1e6 over 2 s,
  and of :func:`q2_scenario` at gamma 700;
- the delay maps of c1-c3, ``DelaySpec(base=0.5, amplitude=2.0,
  frequency=3.0)`` and one custom map on a 30 s stage grid (60,001
  times), each built from its fields by keyword;
- the estimator's laws on seeded inputs (:func:`probe_laws`):
  ``gradient_update`` with one and two outputs, ``drem_update``,
  ``extend_regressor`` with one lag before the history starts, and
  ``adjugate`` and ``mix`` on stacks of sizes 1-5;
- the memory of the 30 s c1 gain-100 gradient and DREM runs
  (:func:`probe_memory`): tracemalloc's peak inside ``simulate`` and the
  bytes still traced with its result alive, per grid node.

It prints the file and line counts of ``src/gpebo/*.py`` in both trees
(what ``wc -l`` reports), the largest absolute difference of each array,
the run where it occurs, whether each file is byte for byte equal, and
both trees' memory figures.  An inf or a nan at the same place in both
trees counts as equal, a nan in one tree only as an infinite difference.
The exit status is 1 when a difference exceeds ``--bound`` or an array's
shape or presence differs between the trees, else 0; differing bytes,
the memory figures and the line counts are reported only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ("c1", "c2", "c3")
RUNS = [("gradient", g) for g in (0.0, 1.0, 10.0, 100.0)] + [("drem", g) for g in (1.0, 10.0, 100.0)]


def drem4_scenario(horizon: float = 30.0):
    """DREM at gamma 10, h = 1e-3 and constant delay 0.5 on a 4-state plant:
    two coupled time-varying oscillators, both forced by sin(t) and
    measured through the sum of their positions."""
    from gpebo import DelaySpec, NamedScenario, SystemSpec

    B = np.array([[0.0], [1.0], [0.0], [1.0]])
    C = np.array([[1.0, 0.0, 1.0, 0.0]])

    def A(t):
        out = np.zeros((len(t), 4, 4))
        out[:, 0, 1] = out[:, 2, 3] = 1.0
        out[:, 1, 0] = -np.sin(t) ** 2
        out[:, 1, 2] = np.cos(2.0 * t)
        out[:, 3, 2] = -9.0 - np.cos(t)
        return out

    system = SystemSpec(n=4, m=1, q=1, A=A,
                        B=lambda t: np.broadcast_to(B, t.shape + B.shape),
                        C=lambda t: np.broadcast_to(C, t.shape + C.shape),
                        u=lambda t: np.sin(t)[:, None], x0=np.array([1.0, -1.0, 0.5, 0.0]))
    return NamedScenario(id="drem4", system=system, delay=DelaySpec(base=0.5), gamma=10.0,
                         estimator="drem", horizon=horizon, step=1e-3,
                         xi0=np.array([0.5, 0.5, -0.5, 1.0]), theta_hat0=np.zeros(4))


def q2_scenario(gamma: float):
    """The gradient law at ``gamma`` over 2 s, h = 2e-3 and constant delay
    0.5 on the c1 plant measured in full, C = I: q = 2 outputs, so psi is
    2 x 2."""
    from dataclasses import replace

    from gpebo import DelaySpec, NamedScenario, builtin_scenario

    system = replace(builtin_scenario("c1", 0.0).system, q=2,
                     C=lambda t: np.tile(np.eye(2), (len(t), 1, 1)))
    return NamedScenario(id="q2", system=system, delay=DelaySpec(base=0.5), gamma=gamma,
                         estimator="gradient", horizon=2.0, step=2e-3,
                         xi0=np.array([0.5, -1.0]), theta_hat0=np.array([1.0, 2.0]))


def stiff_scenarios() -> dict:
    """Runs past RK4's stability region, by probe key: the plant's step on
    A = -3000 I, and the gain with the step on the others."""
    from dataclasses import replace

    from gpebo import builtin_scenario

    c1 = builtin_scenario("c1", 0.0, horizon=0.05)
    A = -3000.0 * np.eye(2)
    runs = {"plant-3000I": replace(c1, system=replace(
        c1.system, A=lambda t: np.broadcast_to(A, t.shape + A.shape)))}
    for sid in ("c1", "c3"):
        for horizon in (10.0, 30.0):
            runs[f"{sid}-gradient-1000-{horizon:g}s"] = builtin_scenario(sid, 1000.0,
                                                                         horizon=horizon)
    runs["c1-drem-1e6-2s"] = builtin_scenario("c1", 1e6, estimator="drem", horizon=2.0)
    runs["q2-gradient-700"] = q2_scenario(700.0)
    return runs


def probe_laws(data: dict) -> None:
    """Record each law on seeded inputs in ``data`` under ``laws/``.  Each is
    looked up in ``gpebo.integrate``, else in the package, where older trees
    keep them."""
    import gpebo.integrate
    from gpebo import TrajectoryHistory

    adjugate, drem_update, extend_regressor, gradient_update, mix = (
        getattr(gpebo.integrate, name, None) or getattr(gpebo, name) for name in
        ("adjugate", "drem_update", "extend_regressor", "gradient_update", "mix"))

    rng = np.random.default_rng(23)
    for q, shape in ((1, (3,)), (2, (3, 2))):
        data[f"laws/q{q}/gradient_update"] = np.array([gradient_update(
            rng.normal(size=shape), rng.normal(size=shape[1:]), rng.normal(size=3), gamma)
            for gamma in (0.5, 10.0, 300.0)])
    data["laws/drem_update"] = np.array([drem_update(
        rng.normal(), rng.normal(size=3), rng.normal(size=3), gamma) for gamma in (0.5, 10.0)])
    # a history over [0.2, 2]: at t = 1.234 the lag 1.5 reads before it starts
    t = np.linspace(0.2, 2.0, 19)
    hist_psi = TrajectoryHistory.from_grid(t, rng.normal(size=(19, 3)))
    hist_y = TrajectoryHistory.from_grid(t, rng.normal(size=19))
    M, Y = extend_regressor(1.234, (0.3, 0.75, 1.5), hist_psi, hist_y)
    data["laws/lag/extend_regressor_M"], data["laws/lag/extend_regressor_Y"] = M, Y
    # singular members either side of the 256 edge of adjugate's blocks
    for n in range(1, 6):
        M = rng.uniform(-1.0, 1.0, size=(515, n, n))
        M[255:257, 0] = 0.0
        data[f"laws/n{n}/adjugate"] = adjugate(M)
        Delta, Y_mixed = mix(M, rng.uniform(-1.0, 1.0, size=(515, n)))
        data[f"laws/n{n}/mix_Delta"], data[f"laws/n{n}/mix_Y"] = Delta, Y_mixed


def probe_memory(data: dict) -> None:
    """Record in ``data`` under ``memory/`` the traced bytes per node of the
    30 s c1 gain-100 gradient and DREM runs: the peak inside ``simulate``
    and what its result still holds."""
    from gpebo import builtin_scenario, simulate

    for estimator in ("gradient", "drem"):
        scenario = builtin_scenario("c1", 100.0, estimator=estimator, horizon=30.0)
        tracemalloc.start()
        try:
            res = simulate(scenario)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for name, value in (("peak", peak), ("kept", kept)):
            data[f"memory/c1-{estimator}-30s/{name}"] = np.array(value / len(res.t))


def probe(out: str) -> None:
    """Record every probed output of the gpebo on the import path in ``out``."""
    from gpebo import (DelaySpec, StiffnessError, TrajectoryHistory, builtin_scenario,
                       delayed_pe_integral, liouville_det, pe_check, pe_integral, simulate)
    from gpebo.cli import main

    data, rng = {}, np.random.default_rng(29)
    probe_memory(data)
    for sid in SCENARIOS:
        for estimator, gamma in RUNS:
            res = simulate(builtin_scenario(sid, gamma, estimator=estimator))
            for name in ("x", "xi", "Phi", "theta_hat", "psi", "y_reg"):
                data[f"run/{sid}/{estimator}/{gamma:g}/{name}"] = getattr(res, name)
        scenario = builtin_scenario(sid, 0.0, horizon=4.0)
        res = simulate(scenario)
        hist, C = res.phi_history(), scenario.system.C
        for T in (1.0, 2.0, 1.2345, 0.0015):
            report = pe_check(hist, C, T, 1e-4)
            for name in ("min_eig_output", "min_eig_regressor"):
                data[f"pe/{sid}/T{T:g}/{name}"] = getattr(report, name)
        data[f"pe/{sid}/pe_integral"] = np.array([np.concatenate(
            [G.ravel() for G in pe_integral(hist, C, 0.2 * i, 2.0)]) for i in range(11)])
        data[f"pe/{sid}/delayed_pe_integral"] = np.array(
            [delayed_pe_integral(hist, C, 0.2 * i, 2.0, scenario.delay) for i in range(11)])
        data[f"pe/{sid}/liouville_det"] = np.array(liouville_det(hist, scenario.system.A))
        times = hist.as_arrays()[0]
        queries = np.concatenate((times, rng.uniform(times[0], times[-1], 200), times[-1:]))
        # trees before the one-lookup history name the array lookup sample_at
        data[f"history/{sid}/phi"] = getattr(hist, "sample_at", hist.sample)(queries)
    syn = np.random.default_rng(31)
    times = np.cumsum(syn.uniform(1e-3, 0.1, 400))
    hist = TrajectoryHistory.from_grid(times, syn.normal(size=(400, 3, 2)))
    queries = np.concatenate((times, syn.uniform(times[0], times[-1], 1000), times[-1:]))
    data["history/synthetic"] = getattr(hist, "sample_at", hist.sample)(queries)
    for key, scenario in (("drem4", drem4_scenario()), ("q2", q2_scenario(10.0)),
                          ("offgrid/c3", builtin_scenario("c3", 10.0, "drem", step=3e-3)),
                          ("offgrid/c1", builtin_scenario("c1", 100.0, "drem", step=1e-2,
                                                          drem_delays=(4e-3,)))):
        res = simulate(scenario)
        for name in ("x", "xi", "Phi", "theta_hat", "psi", "y_reg"):
            data[f"{key}/{name}"] = getattr(res, name)
    with tempfile.TemporaryDirectory() as tmp:
        for sid in SCENARIOS:
            for estimator in ("gradient", "drem"):
                stem = os.path.join(tmp, f"{sid}-{estimator}")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(["--scenario", sid, "--estimator", estimator,
                                 "--gamma", "1,10,100", "--horizon", "10",
                                 "--csv", stem + ".csv", "--svg", stem + ".svg",
                                 "--pe-report", stem + ".pe"])
                data[f"cli/{sid}-{estimator}/exit"] = np.array(code)
                for ext in ("csv", "svg", "pe") if code == 0 else ():
                    with open(f"{stem}.{ext}", "rb") as fh:
                        data[f"bytes/{sid}-{estimator}.{ext}"] = np.frombuffer(fh.read(), np.uint8)
    for key, scenario in stiff_scenarios().items():
        try:
            simulate(scenario)
            data[f"stiff/{key}"] = np.array(np.nan)
        except StiffnessError as exc:
            data[f"stiff/{key}"] = np.array(exc.t)
    stages = 0.5e-3 * np.arange(60001)
    delays = [(sid, builtin_scenario(sid, 0.0).delay) for sid in SCENARIOS] + [
        ("sinusoidal", DelaySpec(base=0.5, amplitude=2.0, frequency=3.0)),
        ("custom", DelaySpec(fn=lambda t: t - 0.3 - 0.1 * np.sin(t)))]
    for name, delay in delays:
        data[f"delay/{name}"] = delay(stages)
    probe_laws(data)
    np.savez(out, **data)


def _package_size(tree: Path) -> tuple:
    """File count and newline count of ``src/gpebo/*.py`` under ``tree``,
    the second as ``wc -l`` totals it."""
    files = list((tree / "src" / "gpebo").glob("*.py"))
    return len(files), sum(p.read_bytes().count(b"\n") for p in files)


def _run_probe(tree: Path, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe", str(out)],
                   env=env, check=True)
    with np.load(out) as f:
        return {k: f[k] for k in f.files}


def compare(ref: dict, new: dict, bound: float) -> bool:
    """Print the per-array report; True when everything is within ``bound``."""
    ok = True
    worst = {}  # array kind -> (max |d|, key)
    same, differ = [], []  # output files
    memory = []  # reported figures
    for key in sorted(set(ref) | set(new)):
        if key not in ref or key not in new:
            print(f"{key}: only in {'this tree' if key in new else 'the ref'}")
            ok = False
            continue
        a, b = ref[key], new[key]
        if key.startswith("bytes/"):
            (same if np.array_equal(a, b) else differ).append(key[6:])
            continue
        if key.startswith("memory/"):
            memory.append(f"{key}: {float(a):.1f} -> {float(b):.1f} B/node")
            continue
        if a.shape != b.shape:
            print(f"{key}: shape {a.shape} -> {b.shape}")
            ok = False
            continue
        # equal values, an inf or a nan in both trees at one place included,
        # differ by 0; a nan in one tree only differs by inf
        nan = np.isnan(a)
        moved = (a != b) & ~nan
        d = (float(np.abs(a[moved] - b[moved]).max(initial=0.0))
             if np.array_equal(nan, np.isnan(b)) else float("inf"))
        kind = key.split("/", 1)[0] + "/" + key.rsplit("/", 1)[1]
        if kind not in worst or not d <= worst[kind][0]:
            worst[kind] = (d, key)
    for kind, (d, key) in worst.items():
        mark = "" if d <= bound else f"  > bound {bound:g}"
        print(f"{kind}: max |d| {d:.3g} ({key if d else 'all equal'}){mark}")
        ok = ok and d <= bound
    print(f"files: {len(same)} of {len(same) + len(differ)} byte for byte equal"
          + (f"; differ: {' '.join(differ)}" if differ else ""))
    for line in memory:
        print(line)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", metavar="REF", help="git ref to compare this tree with")
    parser.add_argument("--bound", type=float, default=1e-12,
                        help="largest allowed max |difference| of any array (default 1e-12)")
    parser.add_argument("--probe", metavar="OUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.probe)
        return 0
    if not args.against:
        parser.error("--against REF is required")
    git = ["git", "-C", str(ROOT)]
    sha = subprocess.run(git + ["rev-parse", "--verify", args.against + "^{commit}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "ref"
        tree.mkdir()
        archive = subprocess.run(git + ["archive", sha], capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        ref = _run_probe(tree, Path(tmp) / "ref.npz")
        new = _run_probe(ROOT, Path(tmp) / "new.npz")
        (ref_files, ref_lines), (new_files, new_lines) = _package_size(tree), _package_size(ROOT)
    print(f"against {args.against} ({sha[:12]}), bound {args.bound:g}")
    print(f"src/gpebo/*.py: {ref_files} -> {new_files} files, "
          f"{ref_lines:,} -> {new_lines:,} lines")
    ok = compare(ref, new, args.bound)
    print("within bound" if ok else "DRIFT ABOVE BOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
