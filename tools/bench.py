"""Paired benchmark runs of this working tree against a git ref, as a BENCH file.

    python tools/bench.py --against HEAD~1 --out BENCH_27.json [--pairs 10]
        [--seed 1] [--workload drem-track] [--section NAME] [--null]
        [--claim TEXT]

Extracts ``<ref>`` with ``git archive`` into a temporary directory, as
``tools/drift.py`` does, and runs the unedited ``perfbench/run.py`` from
the root of each tree, so that each imports its own ``src/``, for the
``run_seconds`` BENCHMARK.json declares.  Within a
pair every workload runs on both trees, and the tree that runs first
alternates from pair to pair.  Only the last line of ``run.py``'s output,
its JSON record, is read.  With ``--null`` both trees are extracted from
``<ref>``: a null run, whose pairs differ by noise alone.

For each workload (default: every one in BENCHMARK.json, which must
declare any name given; another is refused before anything runs) and
each of its end-to-end metrics, the section records both sides' runs,
medians and inclusive quartiles, the pairs the change won (ties count
for neither), the ratio of the medians, and the gap between the medians
over the parent's quartile spread; and each side's operations attempted
and failed and whether every run was correct.  The section goes under
``--section`` (default ``workloads``) in ``--out``, which keeps the other
sections of an existing file, so one file holds the claim's seed, a
held-out seed and a null run.  The file is rewritten after every pair.
The per-layer metrics are not recorded: a traced run reads 0 on seven of
them, as no run calls the layers they time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _extract(sha: str, into: Path) -> Path:
    into.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def _run(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """One ``perfbench/run.py`` run from the root of ``tree``: its last line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", f"{seconds:g}",
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{workload} in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _side(runs: list) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75]).tolist()  # inclusive quartiles
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def summarize(records: dict, metrics: list) -> dict:
    """One workload's section from ``records[side]``, a list of run.py
    records per side, the pairs in order."""
    end_to_end = {}
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        parent = [r["metrics"][name]["value"] for r in records["parent"]]
        change = [r["metrics"][name]["value"] for r in records["change"]]
        p, c = _side(parent), _side(change)
        spread = p["q3"] - p["q1"]
        end_to_end[name] = {
            "unit": m["unit"], "better": m["better"], "parent": p, "change": c,
            "change_better_in_pairs": sum(sign * (b - a) > 0.0 for a, b in zip(parent, change)),
            "ratio_change_over_parent": c["median"] / p["median"],
            "median_gap_over_parent_iqr": (abs(c["median"] - p["median"]) / spread
                                           if spread else None),
        }
    operations = {side: {"attempted": sum(r["attempted"] for r in recs),
                         "failed": sum(r["failed"] for r in recs),
                         "all_correct": all(r["correct"] for r in recs)}
                  for side, recs in records.items()}
    return {"pairs": len(records["parent"]), "end_to_end": end_to_end, "operations": operations}


def describe(section: str, body: dict) -> list:
    """A line per workload and metric of a section, for the notes."""
    lines = []
    for w, res in body.items():
        for name, m in res["end_to_end"].items():
            gap = m["median_gap_over_parent_iqr"]
            lines.append(
                f"{section} {w} {name}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
                f"{m['unit']} (x{m['ratio_change_over_parent']:.3f}), change better in "
                f"{m['change_better_in_pairs']}/{res['pairs']} pairs, median gap "
                + ("n/a" if gap is None else f"{gap:.2f}") + " x the parent's quartile spread")
    return lines


def machine() -> dict:
    info = Path("/proc/cpuinfo")
    lines = info.read_text().splitlines() if info.exists() else []
    cpu = next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")),
               platform.processor())
    return {"cores": os.cpu_count(), "cpu_model": cpu, "numpy": np.__version__,
            "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", metavar="REF", required=True,
                        help="git ref of the parent side")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write or update")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="workload to run, repeatable (default: all in BENCHMARK.json)")
    parser.add_argument("--section", default="workloads", help="key of this run in --out")
    parser.add_argument("--null", action="store_true",
                        help="compare REF with itself instead of this tree")
    parser.add_argument("--claim", help="the claim the file tests")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    unknown = [w for w in args.workload or () if w not in names]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; BENCHMARK.json declares {', '.join(names)}")
    workloads = args.workload or names
    git = ["git", "-C", str(ROOT)]
    sha = subprocess.run(git + ["rev-parse", "--verify", args.against + "^{commit}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    change = f"{sha[:7]} itself" if args.null else "this change"
    seconds = spec["run_seconds"]
    what = (f"parent {sha[:7]} against {change}, perfbench/run.py unedited, seed {args.seed}, "
            f"{seconds:g} s runs, parent and change alternating which runs first")
    command = (f"python3 perfbench/run.py --workload <w> --seconds {seconds:g} "
               f"--seed {args.seed} --trace 0")
    if args.section == "workloads":
        doc.update(what=what, command=command)
    doc["machine"] = machine()
    if args.claim:
        doc["claim"] = args.claim
    doc.setdefault("workloads", {})
    notes = [n for n in doc.get("notes", []) if not n.startswith(args.section + " ")]
    if args.section != "workloads":
        notes.append(f"{args.section} {what}")

    records = {w: {"parent": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": _extract(sha, Path(tmp) / "parent"),
                 "change": _extract(sha, Path(tmp) / "change") if args.null else ROOT}
        for i in range(args.pairs):
            for w in workloads:
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    records[w][side].append(_run(trees[side], w, seconds, args.seed))
            body = {w: summarize(r, spec["end_to_end"]) for w, r in records.items()}
            doc[args.section] = body
            doc["notes"] = notes + describe(args.section, body)
            out.write_text(json.dumps(doc, indent=2) + "\n")
            print(f"pair {i + 1}/{args.pairs} written to {out}", flush=True)
    print("\n".join(describe(args.section, doc[args.section])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
