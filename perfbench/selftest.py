"""Tests of the benchmark itself: every output check passes on a real run
and fails on a perturbed one, tracing changes no output, and the printed
metrics match BENCHMARK.json.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
from gpebo import builtin_scenario, delayed_pe_integral, liouville_det, pe_check, simulate  # noqa: E402
from gpebo.report import RunResult, emit_csv, emit_svg  # noqa: E402
from tracer import LAYER_METRICS, Tracer, instrumented  # noqa: E402
from workloads import STEP, draw_inputs  # noqa: E402

HORIZON = 2.5
INPUTS = draw_inputs(7)["c3"]


def _run(sid="c3", gamma=10.0, estimator="gradient", horizon=HORIZON):
    return simulate(builtin_scenario(sid, gamma, estimator=estimator, horizon=horizon,
                                     x0=INPUTS.x0, xi0=INPUTS.xi0,
                                     theta_hat0=INPUTS.theta0))


@pytest.fixture(scope="module")
def grad():
    return _run()


@pytest.fixture(scope="module")
def ref():
    return reference.PlantReference(INPUTS.x0, HORIZON)


def _perturbed(res, **changes):
    out = copy.copy(res)
    for name, fn in changes.items():
        setattr(out, name, fn(getattr(res, name).copy()))
    return out


def _nudge(index, amount):
    def fn(a):
        a[index] += amount
        return a

    return fn


def test_grid(grad):
    assert checks.grid(grad, STEP) == []
    assert checks.grid(_perturbed(grad, t=lambda t: t * (1 + 1e-8)), STEP)


def test_reconstruction_identity(grad):
    assert checks.reconstruction_identity(grad, INPUTS.theta) == []
    assert checks.reconstruction_identity(_perturbed(grad, xi=_nudge((1200, 0), 1e-7)),
                                          INPUTS.theta)
    assert checks.reconstruction_identity(_perturbed(grad, Phi=lambda P: P * 1.001),
                                          INPUTS.theta)


def test_det_one(grad):
    assert checks.det_one(grad.Phi) == []
    assert checks.det_one(grad.Phi * (1 + 1e-6))


def test_matches_reference(grad, ref):
    assert checks.matches_reference(grad, ref) == []
    assert checks.matches_reference(_perturbed(grad, x=_nudge((2000, 1), 1e-6)), ref)
    assert checks.matches_reference(_perturbed(grad, Phi=lambda P: P * (1 + 1e-7)), ref)


def test_gradient_lyapunov(grad):
    assert checks.gradient_lyapunov(grad, INPUTS.theta, 10.0) == []
    err = grad.theta_hat[1500] - INPUTS.theta
    bumped = _perturbed(grad, theta_hat=_nudge(1500, 1e-6 * err / np.linalg.norm(err)))
    assert checks.gradient_lyapunov(bumped, INPUTS.theta, 10.0)


def test_drem_monotone():
    res = _run(gamma=100.0, estimator="drem")
    assert checks.drem_monotone(res, INPUTS.theta) == []
    err = res.theta_hat[:, 0] - INPUTS.theta[0]
    step = abs(err[2400] - err[2399]) + 1e-6  # more than the step's own decrease
    sign = np.sign(err[2400]) or 1.0
    assert checks.drem_monotone(_perturbed(res, theta_hat=_nudge((2400, 0), 2 * sign * step)),
                                INPUTS.theta)


def test_matches_estimate(grad, ref):
    theta_hat_ref = reference.estimate(ref, "c3", "gradient", 10.0, INPUTS.theta,
                                       INPUTS.theta0, grad.t)
    assert checks.matches_estimate(grad, theta_hat_ref, INPUTS.theta) == []
    frozen = _perturbed(grad, theta_hat=lambda th: np.tile(th[0], (len(th), 1)))
    assert checks.matches_estimate(frozen, theta_hat_ref, INPUTS.theta)
    other_gain = reference.estimate(ref, "c3", "gradient", 100.0, INPUTS.theta,
                                    INPUTS.theta0, grad.t)
    assert checks.matches_estimate(grad, other_gain, INPUTS.theta)
    # The right gain up to t = 1.5, then gamma = 100's rows.
    fast = _run(gamma=100.0)
    mixed = _perturbed(grad, theta_hat=lambda th: np.concatenate([th[:1500],
                                                                  fast.theta_hat[1500:]]))
    assert checks.matches_estimate(mixed, theta_hat_ref, INPUTS.theta)
    slight = reference.estimate(ref, "c3", "gradient", 10.1, INPUTS.theta,
                                INPUTS.theta0, grad.t)
    assert checks.matches_estimate(grad, slight, INPUTS.theta)


def test_drem_converges(ref):
    res = _run(gamma=100.0, estimator="drem")
    theta_hat_ref = reference.estimate(ref, "c3", "drem", 100.0, INPUTS.theta,
                                       INPUTS.theta0, res.t)
    assert checks.drem_converges(res, theta_hat_ref, INPUTS.theta) == []
    frozen = _perturbed(res, theta_hat=lambda th: np.tile(th[0], (len(th), 1)))
    assert checks.drem_converges(frozen, theta_hat_ref, INPUTS.theta)
    slow = reference.estimate(ref, "c3", "drem", 10.0, INPUTS.theta, INPUTS.theta0, res.t)
    assert checks.drem_converges(res, slow, INPUTS.theta)


def test_frozen():
    res = _run(gamma=0.0, horizon=0.5)
    assert checks.frozen(res) == []
    assert checks.frozen(_perturbed(res, theta_hat=_nudge((100, 1), 1e-12)))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    runs = [(g, _run(gamma=g)) for g in (1.0, 100.0)]
    result = RunResult("c3", "gradient", [g for g, _ in runs], [r for _, r in runs], 0.0)
    d = tmp_path_factory.mktemp("sweep")
    emit_csv(result, str(d / "out.csv"))
    emit_svg(result, str(d / "out.svg"))
    return runs, d


def test_csv_round_trip(sweep):
    runs, d = sweep
    path = str(d / "out.csv")
    assert checks.csv_round_trip(path, runs, INPUTS.theta) == []
    nudged = [(g, _perturbed(r, theta_hat=_nudge((700, 0), 1e-9))) for g, r in runs]
    assert checks.csv_round_trip(path, nudged, INPUTS.theta)
    lines = Path(path).read_text().splitlines()
    fields = lines[900].split(",")
    fields[3] = repr(float(np.nextafter(float(fields[3]), np.inf)))  # x2, one ulp off
    lines[900] = ",".join(fields)
    edited = d / "edited.csv"
    edited.write_text("\n".join(lines) + "\n")
    assert checks.csv_round_trip(str(edited), runs, INPUTS.theta)


def test_svg_vertices(sweep):
    runs, d = sweep
    path = d / "out.svg"
    assert checks.svg_vertices(str(path), runs) == []
    scaled = [(g, _perturbed(r, Phi=lambda P: P * 1.01)) for g, r in runs]
    assert checks.svg_vertices(str(path), scaled)
    text = path.read_text()
    head, sep, tail = text.partition('points="')
    x, _, rest = tail.partition(",")
    y, _, rest = rest.partition(" ")
    moved = d / "moved.svg"
    moved.write_text(head + sep + f"{x},{float(y) + 0.05:.2f} " + rest)
    assert checks.svg_vertices(str(moved), runs)


@pytest.fixture(scope="module")
def open_loop():
    res = _run(gamma=0.0, horizon=HORIZON)
    return res, res.phi_history()


def test_pe_report_matches(open_loop, ref):
    res, hist = open_loop
    gramians = lambda s, T: reference.output_gramians(ref, s, T)  # noqa: E731
    report = pe_check(hist, res.scenario.system.C, 1.0, 1e-4)
    assert checks.pe_report_matches(report, gramians, 1e-4) == []
    off = copy.copy(report)
    off.min_eig_regressor = report.min_eig_regressor * np.where(
        np.arange(len(report.starts)) == 4, 1.001, 1.0)
    assert checks.pe_report_matches(off, gramians, 1e-4)
    assert checks.pe_report_matches(report, gramians, 1e3)


def test_delayed_quadrature_separates_defect(open_loop, ref):
    res, hist = open_loop
    C = res.scenario.system.C
    c1 = builtin_scenario("c1", 0.0).delay
    G = delayed_pe_integral(hist, C, 0.2, 2.0, c1)
    assert checks.delayed_error(G, reference.delayed_gramian(ref, "c1", 0.2, 2.0)) < 1e-6
    G_ref = reference.delayed_gramian(ref, "c1", 0.2, 2.0)
    assert checks.delayed_error(G_ref * 1.001, G_ref) > checks.DELAYED_TOL
    # c3's sinusoidal delay: the program's Gramian is off the time-domain one.
    G3 = delayed_pe_integral(hist, C, 0.2, 2.0, res.scenario.delay)
    assert checks.delayed_error(G3, reference.delayed_gramian(ref, "c3", 0.2, 2.0)) > 0.1


def test_delayed_window(open_loop, ref):
    res, hist = open_loop
    C = res.scenario.system.C

    def refs(sid, start):
        return (reference.delayed_gramian(ref, sid, start, 2.0),
                reference.delayed_formula_gramian(ref, sid, start, 2.0))

    G1 = delayed_pe_integral(hist, C, 0.2, 2.0, builtin_scenario("c1", 0.0).delay)
    assert checks.delayed_window(G1, *refs("c1", 0.2)) == ([], False)
    # c3: off the time-domain Gramian, on the documented formula.
    G3 = delayed_pe_integral(hist, C, 0.2, 2.0, res.scenario.delay)
    assert checks.delayed_window(G3, *refs("c3", 0.2)) == ([], True)
    bad = {
        "zeros": np.zeros((2, 2)),
        "nan": np.full((2, 2), np.nan),
        "scaled": G3 * 1.01,
        "asymmetric": G3 + np.array([[0.0, 1e-9], [0.0, 0.0]]),
        "indefinite": G3 - 2.0 * np.linalg.eigvalsh(G3)[0] * np.eye(2),
    }
    for name, G in bad.items():
        faults, _ = checks.delayed_window(G, *refs("c3", 0.2))
        assert faults, name


def test_liouville_matches(open_loop):
    res, hist = open_loop
    value = liouville_det(hist, res.scenario.system.A)
    assert checks.liouville_matches(value, res.Phi) == []
    assert checks.liouville_matches(value + 1e-8, res.Phi)


def test_tracing_restores_gpebo_and_changes_no_output():
    import gpebo.cli as cli
    import gpebo.history as history
    import gpebo.integrate as integrate

    before = (cli.run, cli.simulate, integrate.gradient_update,
              history.TrajectoryHistory.__dict__["sample"],
              integrate.SimulationResult.__dict__["xhat"])
    tracer = Tracer()
    with instrumented(tracer) as api:
        traced = api.simulate(api.builtin_scenario("c2", 10.0, horizon=1.2))
    after = (cli.run, cli.simulate, integrate.gradient_update,
             history.TrajectoryHistory.__dict__["sample"],
             integrate.SimulationResult.__dict__["xhat"])
    assert before == after
    plain = simulate(builtin_scenario("c2", 10.0, horizon=1.2))
    for name in ("x", "xi", "Phi", "theta_hat"):
        assert np.array_equal(getattr(traced, name), getattr(plain, name))
    assert tracer.calls("observer.gradient_update") == 4 * 1200
    assert tracer.counters["integrate.nodes"] == 1201


def _run_benchmark(args, cwd):
    done = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return done.returncode, done.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    code, out = _run_benchmark(["perfbench/run.py", "--workload", "drem-track", "--seed", "3",
                            "--seconds", "0", "--trace", str(trace)], ROOT)
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        assert set(LAYER_METRICS) <= set(result["metrics"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = _run_benchmark(["perfbench/run.py", "--workload", "pe-audit", "--seed", "1",
                            "--seconds", "1", "--trace", "0"], tmp_path)
    assert code != 0
    assert '"metrics"' not in out
