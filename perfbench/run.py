"""gpebo benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload gradient-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; gpebo is imported from its ``src``
directory.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` untraced and traced
passes alternate, the per-layer metrics are printed instead, and the spans
are written to ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread: set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import yardstick  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 60
YARDSTICK_PER_GAP = 2


def yardstick_samples() -> list:
    return [yardstick.sample() for _ in range(YARDSTICK_PER_GAP)]


def scaled(times, yardsticks) -> float:
    """Sum of ``times``, each scaled to the reference host speed by the
    yardstick median measured around it; see yardstick.py."""
    return sum(yardstick.to_reference(t, y) for t, y in zip(times, yardsticks, strict=True))


def probe_setup(spec: dict) -> list:
    """gpebo's set-up time, measured SETUP_REPEATS times in fresh
    interpreters, each with the median yardstick sample around it."""
    out = []
    before = yardstick_samples()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        after = yardstick_samples()
        out.append((float(done.stdout.strip().splitlines()[-1]),
                    statistics.median(before + after)))
        before = after
    return out


def measure(workload, inputs, seconds: float, trace: bool, tmp: str):
    """Run whole passes until the next one would overrun ``seconds``.

    With ``trace`` the passes alternate untraced, traced.  Yardstick
    samples are taken before and after each scenario of a pass, and the
    pass record gets ``yardsticks``: per scenario, the median of the
    samples around it.  Returns the untraced records, the traced records with
    their tracers, and the faults of passes whose outputs differ from the
    first pass's.
    """
    from tracer import Tracer, instrumented, plain_api
    from workloads import same_outputs

    plain = plain_api()
    untraced, traced, faults = [], [], []
    first = None
    spent = {False: [], True: []}
    start = time.perf_counter()
    index = 0
    while True:
        gaps = []

        def pause():
            gaps.append(yardstick_samples())

        is_traced = trace and index % 2 == 1
        outdir = os.path.join(tmp, f"p{index}")
        os.mkdir(outdir)
        began = time.perf_counter()
        if is_traced:
            tracer = Tracer()
            with instrumented(tracer) as api:
                rec = workload.run_pass(api, inputs, outdir, pause)
            traced.append((rec, tracer))
        else:
            rec = workload.run_pass(plain, inputs, outdir, pause)
            untraced.append(rec)
        if first is None:
            first = rec
        else:
            faults += same_outputs(first, rec)
            shutil.rmtree(outdir)
            rec.runs.clear()
        rec.yardsticks = [statistics.median(a + b) for a, b in zip(gaps, gaps[1:])]
        spent[is_traced].append(time.perf_counter() - began)
        print(f"pass {index} traced={int(is_traced)} wall_s={sum(rec.scenario_walls)!r} "
              f"scaled_wall_s={scaled(rec.scenario_walls, rec.yardsticks)!r}", flush=True)
        index += 1
        next_traced = trace and index % 2 == 1
        estimate = statistics.median(spent[next_traced] or spent[not next_traced])
        if (not trace or traced) and time.perf_counter() - start + estimate > seconds:
            break
    return untraced, traced, faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gpebo" / "__init__.py").is_file():
        print(f"perfbench: no gpebo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, draw_inputs

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = draw_inputs(args.seed)
    for sid, inp in inputs.items():
        print(f"inputs {sid} x0={inp.x0} xi0={inp.xi0} theta0={inp.theta0}")

    setup = [] if args.trace else probe_setup(workload.probe_spec(inputs))
    import gpebo

    if Path(gpebo.__file__).resolve().parent != SRC / "gpebo":
        print(f"perfbench: imported gpebo from {gpebo.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        untraced, traced, faults = measure(workload, inputs, args.seconds,
                                           bool(args.trace), tmp)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        import reference  # scipy is imported only after the peak RSS is read

        first = untraced[0]
        refs = {sid: reference.PlantReference(inp.x0, workload.horizon)
                for sid, inp in inputs.items()}
        found, failed_per_pass = workload.check(first, inputs, refs)
        faults += found
        for (sid, gamma), res in sorted(first.runs.items()):
            print(f"digest {args.workload} {sid} gamma={gamma:g} "
                  f"max_abs_x={float(abs(res.x).max())!r} "
                  f"final_theta_err={float(((res.theta_hat[-1] - res.theta) ** 2).sum() ** 0.5)!r}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    records = untraced + [rec for rec, _ in traced]
    attempted = sum(rec.ops for rec in records)
    failed = sum(rec.failed for rec in records) + failed_per_pass * len(records)
    for fault in faults:
        print(f"FAULT {fault}")

    if args.trace:
        from tracer import LAYER_METRICS, layer_metrics

        tracers = [t for _, t in traced]
        values = layer_metrics(tracers)
        # Scaled like wall_s, since the two kinds of pass run at different times.
        untraced_wall = statistics.median(scaled(r.scenario_walls, r.yardsticks) for r in untraced)
        traced_wall = statistics.median(scaled(r.scenario_walls, r.yardsticks) for r, _ in traced)
        rates = [r.windows / r.window_s for r in untraced if r.windows]
        metrics = {name: {"value": values[name], "unit": LAYER_METRICS[name][0]}
                   for name in LAYER_METRICS}
        metrics["windows_per_s"] = {"value": statistics.median(rates) if rates else 0.0,
                                    "unit": "1/s"}
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
        last = tracers[-1]
        for name, (calls, inclusive, own) in sorted(last.stats.items(),
                                                    key=lambda kv: -kv[1][2]):
            print(f"self {name:32s} calls={calls:9d} inclusive_s={inclusive:.4f} "
                  f"self_s={own:.4f}")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "passes": [t.record() for t in tracers]}, fh)
        print(f"wrote {trace_path.relative_to(ROOT)}")
    else:
        raw = {
            "setup_s": statistics.median(t for t, _ in setup),
            "wall_s": statistics.median(sum(r.scenario_walls) for r in untraced),
            "run_steps_per_s": statistics.median(r.steps / sum(r.scenario_sims) for r in untraced),
            "yardstick_s": statistics.median(y for r in untraced for y in r.yardsticks),
        }
        print(" ".join(f"raw_{name}={value!r}" for name, value in raw.items()))
        metrics = {
            "setup_s": {"value": statistics.median(yardstick.to_reference(t, y)
                                                   for t, y in setup),
                        "unit": "s"},
            "wall_s": {"value": statistics.median(scaled(r.scenario_walls, r.yardsticks)
                                                  for r in untraced), "unit": "s"},
            "run_steps_per_s": {"value": statistics.median(r.steps / scaled(r.scenario_sims, r.yardsticks)
                                                           for r in untraced), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not faults, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
