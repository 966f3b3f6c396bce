"""Largest output change of this working tree against a git ref.

    python tools/drift.py --against HEAD~1 [--bound 1e-12]

Checks ``<ref>`` out with ``git worktree`` into a temporary directory and
runs one probe in a subprocess on each tree, importing that tree's
``src/gpebo``.  The probe records:

- the 21 default-horizon runs, c1-c3 x gradient gamma 0/1/10/100 and
  DREM 1/10/100: x, xi, Phi, theta_hat, psi and y_reg;
- on 4 s open-loop c1-c3 runs: ``pe_check``'s smallest eigenvalues at
  T = 1 and 2, ``delayed_pe_integral`` at starts 0, 0.2, ..., 2 with
  T = 2, and ``liouville_det``;
- the bytes of the CLI's CSV, SVG and excitation report for c1-c3 with
  either law at gammas 1, 10 and 100 over 10 s.

It prints the largest absolute difference of each array, the run where it
occurs, and whether each file is byte for byte equal.  The exit status is
1 when a difference exceeds ``--bound`` or an array's shape or presence
differs between the trees, else 0; differing bytes are reported only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ("c1", "c2", "c3")
RUNS = [("gradient", g) for g in (0.0, 1.0, 10.0, 100.0)] + [("drem", g) for g in (1.0, 10.0, 100.0)]


def probe(out: str) -> None:
    """Record every probed output of the gpebo on the import path in ``out``."""
    from gpebo import builtin_scenario, delayed_pe_integral, liouville_det, pe_check, simulate
    from gpebo.cli import main

    data = {}
    for sid in SCENARIOS:
        for estimator, gamma in RUNS:
            res = simulate(builtin_scenario(sid, gamma, estimator=estimator))
            for name in ("x", "xi", "Phi", "theta_hat", "psi", "y_reg"):
                data[f"run/{sid}/{estimator}/{gamma:g}/{name}"] = getattr(res, name)
        scenario = builtin_scenario(sid, 0.0, horizon=4.0)
        res = simulate(scenario)
        hist, C = res.phi_history(), scenario.system.C
        for T in (1.0, 2.0):
            report = pe_check(hist, C, T, 1e-4)
            for name in ("min_eig_output", "min_eig_regressor"):
                data[f"pe/{sid}/T{T:g}/{name}"] = getattr(report, name)
        data[f"pe/{sid}/delayed_pe_integral"] = np.array(
            [delayed_pe_integral(hist, C, 0.2 * i, 2.0, scenario.delay) for i in range(11)])
        data[f"pe/{sid}/liouville_det"] = np.array(liouville_det(hist, scenario.system.A))
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
    np.savez(out, **data)


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
    for key in sorted(set(ref) | set(new)):
        if key not in ref or key not in new:
            print(f"{key}: only in {'this tree' if key in new else 'the ref'}")
            ok = False
            continue
        a, b = ref[key], new[key]
        if key.startswith("bytes/"):
            (same if np.array_equal(a, b) else differ).append(key[6:])
            continue
        if a.shape != b.shape:
            print(f"{key}: shape {a.shape} -> {b.shape}")
            ok = False
            continue
        d = float(np.abs(a - b).max()) if a.size else 0.0
        if not np.array_equal(np.isnan(a), np.isnan(b)):
            d = float("inf")
        kind = key.split("/", 1)[0] + "/" + key.rsplit("/", 1)[1]
        if kind not in worst or not d <= worst[kind][0]:
            worst[kind] = (d, key)
    for kind, (d, key) in worst.items():
        mark = "" if d <= bound else f"  > bound {bound:g}"
        print(f"{kind}: max |d| {d:.3g} ({key if d else 'all equal'}){mark}")
        ok = ok and d <= bound
    print(f"files: {len(same)} of {len(same) + len(differ)} byte for byte equal"
          + (f"; differ: {' '.join(differ)}" if differ else ""))
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
        subprocess.run(git + ["worktree", "add", "--quiet", "--detach", str(tree), sha],
                       check=True)
        try:
            ref = _run_probe(tree, Path(tmp) / "ref.npz")
        finally:
            subprocess.run(git + ["worktree", "remove", "--force", str(tree)], check=True)
        new = _run_probe(ROOT, Path(tmp) / "new.npz")
    print(f"against {args.against} ({sha[:12]}), bound {args.bound:g}")
    ok = compare(ref, new, args.bound)
    print("within bound" if ok else "DRIFT ABOVE BOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
