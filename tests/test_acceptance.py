"""Acceptance gate: every shipping criterion, one printed verdict line each.

Each test emits `[criterion N] PASS/FAIL <name> (<measurements>)`; the
conftest relays the collected lines into the terminal summary so the suite
output doubles as the acceptance report even for passing tests.  Heavy
simulations are shared through session fixtures.
"""

import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gpebo import (
    DelaySpec,
    LtiOracle,
    NamedScenario,
    SystemSpec,
    adjugate,
    builtin_scenario,
    pe_check,
    pe_integral,
    delayed_pe_integral,
    simulate,
)
from gpebo.cli import main

SCENARIOS = ("c1", "c2", "c3")
GAMMAS = (1.0, 10.0, 100.0)


VERDICTS = []


def _report(num, name, ok, detail=""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    VERDICTS.append(line)
    print(line)
    assert ok, line


def _const_system(A, C, x0=None):
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    n = A.shape[0]
    return SystemSpec(
        n=n, m=1, q=1,
        A=lambda t: np.broadcast_to(A, t.shape + A.shape),
        B=lambda t: np.zeros(t.shape + (n, 1)),
        C=lambda t: np.broadcast_to(C, t.shape + C.shape),
        u=lambda t: np.zeros(t.shape + (1,)),
        x0=np.zeros(n) if x0 is None else np.asarray(x0, dtype=float),
    )


@pytest.fixture(scope="session")
def gradient_runs():
    """Benchmark runs with defaults for every scenario/gain pair."""
    out = {}
    for sid in SCENARIOS:
        for gamma in GAMMAS:
            start = time.perf_counter()
            res = simulate(builtin_scenario(sid, gamma, estimator="gradient"))
            out[(sid, gamma)] = (res, time.perf_counter() - start)
    return out


@pytest.fixture(scope="session")
def drem_runs():
    out = {}
    for sid in SCENARIOS:
        out[sid] = simulate(builtin_scenario(sid, 100.0, estimator="drem"))
    return out


def test_criterion_01_reconstruction_identity(gradient_runs):
    worst_dev = 0.0
    worst_time = 0.0
    for sid in SCENARIOS:
        res, dur = gradient_runs[(sid, 100.0)]
        dev = np.linalg.norm(
            res.x - res.xi + np.einsum("kij,j->ki", res.Phi, res.theta), axis=1
        ).max()
        worst_dev = max(worst_dev, dev)
        worst_time = max(worst_time, dur)
    ok = worst_dev <= 1e-6 and worst_time <= 10.0
    _report(1, "reconstruction identity on C1-C3",
            ok, f"max dev {worst_dev:.2e}, slowest run {worst_time:.1f}s")


def test_criterion_02_liouville_certificate(gradient_runs):
    res, _ = gradient_runs[("c1", 100.0)]
    dev = np.abs(np.linalg.det(res.Phi) - 1.0).max()
    ok = dev <= 1e-6
    _report(2, "zero-trace determinant certificate", ok, f"max |det-1| {dev:.2e}")


def test_criterion_03_lti_oracle_equivalence():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    oracle = LtiOracle(A)

    def rot_err(h):
        scen = NamedScenario(
            id="rot", system=_const_system(A, [[1.0, 0.0]]),
            delay=DelaySpec.identity(), gamma=0.0, estimator="gradient",
            horizon=10.0, step=h, xi0=np.zeros(2), theta_hat0=np.zeros(2),
        )
        res = simulate(scen)
        return np.abs(res.Phi[-1] - oracle.phi(float(res.t[-1]))).max()

    fine = rot_err(1e-3)
    errs = [rot_err(h) for h in (0.1, 0.05, 0.025, 0.0125)]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    ok = fine <= 1e-8 and all(r >= 12.0 for r in ratios)
    _report(3, "rotation closed form and fourth-order step halving", ok,
            f"err(h=1e-3) {fine:.2e}, halving ratios "
            + "/".join(f"{r:.1f}" for r in ratios))


def test_criterion_04_gradient_lyapunov_monotonicity(gradient_runs):
    worst = -np.inf
    for sid in SCENARIOS:
        for gamma in GAMMAS:
            res, _ = gradient_runs[(sid, gamma)]
            V = (res.theta_error ** 2).sum(axis=1) / gamma
            worst = max(worst, float(np.diff(V).max()))
    ok = worst <= 1e-9
    _report(4, "weighted parameter error non-increasing for all runs", ok,
            f"worst per-step increase {worst:.2e}")


def _slow_rate_prediction(res, gamma, t):
    """First-order slow-mode decay of the gradient law along the run.

    The delayed regressor psi(t) = C(phi(t)) Phi(phi(t)) is rebuilt from
    the recorded transition matrix and the scenario's delay map.  Writing
    psi = |psi| (cos a, sin a), the component of theta_err along psi dies
    at rate gamma |psi|^2, and the orthogonal one at a'^2 / (gamma |psi|^2)
    to first order in eps = |a'| / (gamma |psi|^2).  Returns the integrated
    rate P(t) from t[0] and the largest eps on ``t``.
    """
    hist = res.phi_history()
    C = res.scenario.system.C
    delay = res.scenario.delay
    phi = delay(t)
    psi = (C(phi) @ hist.sample_at(phi))[:, 0]
    dpsi = np.gradient(psi, t, axis=0)
    sq = (psi ** 2).sum(axis=1)
    turn = (psi[:, 0] * dpsi[:, 1] - psi[:, 1] * dpsi[:, 0]) / sq
    eps = float((np.abs(turn) / (gamma * sq)).max())
    density = turn ** 2 / (gamma * sq)
    P = np.concatenate(([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(t))))
    return P, eps


def test_criterion_05_convergence_under_pe(gradient_runs):
    # Under PE the gradient law converges exponentially for every gain, but
    # a high gain does not converge fast: with a turning regressor the slow
    # rate is a'^2 / (gamma |psi|^2).  Check the gain-100 runs against it.
    gamma = 100.0
    details = []
    ok = True
    for sid in SCENARIOS:
        res, _ = gradient_runs[(sid, gamma)]
        mask = (res.t >= 2.0) & (res.t <= 25.0)
        t = res.t[mask]
        P, eps = _slow_rate_prediction(res, gamma, t)
        te = np.linalg.norm(res.theta_error[mask], axis=1)
        drop = np.log(te / te[0])
        gap = float(np.abs(drop + P).max())
        tail = np.linalg.norm(res.estimation_error, axis=1)[res.t >= 25.0].max()
        part_ok = P[-1] > 0.0 and eps <= 0.1 and gap <= 1e-2
        ok = ok and part_ok
        details.append(f"{sid}: drop {-drop[-1]:.5f} vs predicted {P[-1]:.5f}, "
                       f"gap {gap:.1e}, eps {eps:.3f}, old tail {tail:.2e} (info)")
    _report(5, "gain-100 gradient convergence on C1-C3 at the predicted rate",
            ok, "; ".join(details))


def _laplace_det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    if n == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1.0) ** j * M[0][j] * _laplace_det(minor)
    return total


def test_criterion_06_drem_decoupling(drem_runs):
    worst_inc = -np.inf
    for sid in SCENARIOS:
        res = drem_runs[sid]
        comp_err = np.abs(res.theta_error)
        worst_inc = max(worst_inc, float(np.diff(comp_err, axis=0).max()))
    mono_ok = worst_inc <= 1e-9

    rng = np.random.default_rng(101)
    worst_adj = 0.0
    for n in (2, 3):
        for _ in range(500):
            M = rng.uniform(-2.0, 2.0, size=(n, n))
            det_ref = _laplace_det(M.tolist())
            resid = np.abs(adjugate(M) @ M - det_ref * np.eye(n)).max()
            worst_adj = max(worst_adj, resid)
    adj_ok = worst_adj <= 1e-12

    _report(6, "componentwise monotone decoupled estimation and adjugate identity",
            mono_ok and adj_ok,
            f"worst |err_i| increase {worst_inc:.2e}, worst adj residual {worst_adj:.2e}")


def test_criterion_07_frozen_estimator_decays_open_loop():
    sysm = _const_system(-np.eye(2), np.zeros((1, 2)), x0=[1.0, -1.0])
    scen = NamedScenario(
        id="openloop", system=sysm, delay=DelaySpec.identity(), gamma=100.0,
        estimator="gradient", horizon=16.0, step=1e-3,
        xi0=np.zeros(2), theta_hat0=np.zeros(2),
    )
    res = simulate(scen)
    frozen = bool(np.all(res.theta_hat == res.theta_hat[0]))
    err = np.linalg.norm(res.estimation_error, axis=1)
    pred = np.exp(-res.t) * np.linalg.norm(res.theta_hat[0] - res.theta)
    dev = float(np.abs(err - pred).max())
    late = float(err[res.t >= 15.0].max())
    ok = frozen and dev <= 1e-6 and late <= 1e-3
    _report(7, "contracting plant with zero output map decays open loop", ok,
            f"frozen={frozen}, |err - e^-t| {dev:.2e}, err(t>=15) {late:.2e}")


def test_criterion_08_pe_checker_discrimination(gradient_runs):
    scalar = NamedScenario(
        id="decay", system=_const_system([[-1.0]], [[1.0]], x0=[1.0]),
        delay=DelaySpec.identity(), gamma=0.0, estimator="gradient",
        horizon=30.0, step=1e-3, xi0=np.zeros(1), theta_hat0=np.zeros(1),
    )
    res_scalar = simulate(scalar)
    rep_scalar = pe_check(res_scalar.phi_history(), scalar.system.C,
                          T=2.0, delta_floor=1e-3)
    not_pe_ok = (not rep_scalar.pe_regressor) and rep_scalar.delta_regressor < 1e-3

    res, _ = gradient_runs[("c1", 100.0)]
    hist = res.phi_history()
    C = res.scenario.system.C
    rep_bench = pe_check(hist, C, T=5.0, delta_floor=1e-4)
    pe_ok = rep_bench.pe_regressor and rep_bench.delta_regressor >= 1e-4

    _, Gn = pe_integral(hist, C, 1.0, 5.0)
    G4 = delayed_pe_integral(hist, C, 1.0, 5.0, DelaySpec.identity())
    ident_dev = float(np.abs(G4 - Gn).max())
    ident_ok = ident_dev <= 1e-8

    _report(8, "excitation checker separates decaying and oscillating plants",
            not_pe_ok and pe_ok and ident_ok,
            f"decaying delta {rep_scalar.delta_regressor:.2e}, "
            f"benchmark delta {rep_bench.delta_regressor:.3f}, "
            f"identity-delay dev {ident_dev:.2e}")


def test_criterion_09_determinism_and_io(tmp_path):
    args = ["--scenario", "c1", "--gamma", "1,10,100",
            "--horizon", "2", "--step", "1e-3"]
    paths = {}
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        csv = d / "out.csv"
        svg = d / "out.svg"
        code = main(args + ["--csv", str(csv), "--svg", str(svg)])
        assert code == 0
        paths[tag] = (csv, svg)
    csv_same = paths["a"][0].read_bytes() == paths["b"][0].read_bytes()
    svg_same = paths["a"][1].read_bytes() == paths["b"][1].read_bytes()

    lines = paths["a"][0].read_text().splitlines()
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    round_trip = True
    for gamma in GAMMAS:
        block = table[table[:, 1] == gamma]
        ref = simulate(builtin_scenario("c1", gamma, horizon=2.0))
        round_trip = round_trip and np.array_equal(block[:, 0], ref.t)
        round_trip = round_trip and np.array_equal(block[:, 2:4], ref.x)
        round_trip = round_trip and np.array_equal(block[:, 4:6], ref.xhat)
        round_trip = round_trip and np.array_equal(block[:, 10:12], ref.theta_hat)

    text = paths["a"][1].read_text()
    root = ET.fromstring(text)
    svg_ok = (
        text.startswith("<?xml")
        and root.tag == "{http://www.w3.org/2000/svg}svg"
        and len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 6
    )

    ok = csv_same and svg_same and round_trip and svg_ok
    _report(9, "byte-identical reruns, exact CSV round trip, well-formed SVG",
            ok, f"csv_same={csv_same}, svg_same={svg_same}, "
                f"round_trip={round_trip}, svg_ok={svg_ok}")
