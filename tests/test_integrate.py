"""Three-pass fixed-step integration: step exactness, order, and guards."""

import importlib.util
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gpebo.integrate as integrate
from gpebo import (
    DelaySpec,
    DivergenceError,
    NamedScenario,
    StiffnessError,
    SystemSpec,
    builtin_scenario,
    mix,
    simulate,
)

ROOT = Path(__file__).resolve().parent.parent
# the plants of tools/drift.py's probes, so that each is written once
_spec = importlib.util.spec_from_file_location("drift", ROOT / "tools" / "drift.py")
drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(drift)


def _const_system(A, C=None, n=None, x0=None):
    A = np.asarray(A, dtype=float)
    n = n or A.shape[0]
    if C is None:
        C = np.zeros((1, n))
        C[0, 0] = 1.0
    C = np.asarray(C, dtype=float)
    return SystemSpec(
        n=n, m=1, q=1,
        A=lambda t: np.broadcast_to(A, t.shape + A.shape),
        B=lambda t: np.zeros(t.shape + (n, 1)),
        C=lambda t: np.broadcast_to(C, t.shape + C.shape),
        u=lambda t: np.zeros(t.shape + (1,)),
        x0=np.zeros(n) if x0 is None else np.asarray(x0, dtype=float),
    )


def _scenario(system, gamma=0.0, horizon=1.0, step=1e-3, theta_hat0=None, **kw):
    n = system.n
    return NamedScenario(
        id="test", system=system, delay=kw.pop("delay", DelaySpec()),
        gamma=gamma, estimator=kw.pop("estimator", "gradient"),
        horizon=horizon, step=step,
        xi0=kw.pop("xi0", np.zeros(n)),
        theta_hat0=np.zeros(n) if theta_hat0 is None else np.asarray(theta_hat0, float),
    )


def _named_step(exc):
    """The safe step a StiffnessError's message names."""
    return float(re.search(r"= (\S+) is a safe step$", str(exc.value)).group(1))


def test_rhs_all_zero():
    # a zero right-hand side, zero residual included, leaves every recorded
    # quantity at its initial value
    scen = _scenario(_const_system(np.zeros((2, 2))), gamma=1.0, horizon=0.5, step=0.1)
    res = simulate(scen)
    for field in (res.x, res.xi, res.theta_hat):
        assert not field.any()
    assert np.array_equal(res.Phi, np.tile(np.eye(2), (6, 1, 1)))


def test_rhs_benchmark_initial_slope():
    # A(0) x = [x2, 0] and u(0) = 0, so xdot(0) = [-1, 0]; one tiny step
    # recovers it up to the O(h) curvature of x2
    h = 1e-6
    res = simulate(builtin_scenario("c1", 0.0, horizon=h, step=h))
    slope = (res.x[1] - res.x[0]) / h
    assert np.abs(slope - np.array([-1.0, 0.0])).max() <= 1e-6


def test_rhs_zero_residual_freezes_estimate():
    scen = builtin_scenario("c1", 100.0)
    theta = scen.xi0 - scen.system.x0
    scen = _scenario(scen.system, gamma=100.0, theta_hat0=theta,
                     xi0=scen.xi0, delay=scen.delay)
    res = simulate(scen)
    assert np.abs(res.theta_hat - theta).max() <= 1e-13


def _rk4_exp_step(h):
    # RK4 on x' = x from x = 1: the series of e^h truncated after h^4
    return 1.0 + h + h * h / 2.0 + h**3 / 6.0 + h**4 / 24.0


def test_rk4_step_exponential():
    scen = _scenario(_const_system([[1.0]], x0=[1.0]), horizon=0.1, step=0.1)
    res = simulate(scen)
    assert res.x[1, 0] == pytest.approx(1.1051708333333333, rel=1e-12)
    assert abs(res.x[1, 0] - math.exp(0.1)) <= 1e-7


def test_rk4_step_zero_rhs_bit_exact():
    scen = _scenario(_const_system(np.zeros((2, 2)), x0=[1.0, -1.0]),
                     xi0=np.array([0.5, 2.0]), horizon=0.1, step=0.1)
    res = simulate(scen)
    assert np.array_equal(res.x[1], res.x[0])
    assert np.array_equal(res.xi[1], res.xi[0])
    assert np.array_equal(res.Phi[1], res.Phi[0])
    assert np.array_equal(res.theta_hat[1], res.theta_hat[0])


def test_rk4_step_appends_accepted_node():
    # each accepted step lands on the grid node k h and is recorded there
    res = simulate(_scenario(_const_system([[1.0]], x0=[1.0]), horizon=0.75, step=0.25))
    assert np.array_equal(res.t, 0.25 * np.arange(4))
    expected = _rk4_exp_step(0.25) ** np.arange(4)
    assert np.abs(res.x[:, 0] - expected).max() <= 1e-15 * expected.max()


def test_nilpotent_transition_matrix_is_exact():
    # dPhi/dt = A Phi with A strictly triangular: Phi(t) = I + A t, and RK4
    # reproduces degree-1 polynomials up to accumulated roundoff
    scen = _scenario(_const_system([[0.0, 1.0], [0.0, 0.0]]), horizon=2.0)
    res = simulate(scen)
    assert np.abs(res.Phi[-1] - np.array([[1.0, 2.0], [0.0, 1.0]])).max() <= 1e-12


def test_frozen_estimator_error_factorization():
    # gamma = 0 keeps theta_hat constant, so x - xhat = Phi theta_tilde(0)
    scen = builtin_scenario("c1", 0.0, horizon=2.0)
    res = simulate(scen)
    assert np.array_equal(res.theta_hat[0], res.theta_hat[-1])
    tilde0 = res.theta_hat[0] - res.theta
    predicted = np.einsum("kij,j->ki", res.Phi, tilde0)
    assert np.abs(res.estimation_error - predicted).max() <= 1e-12


def test_reconstruction_identity_relative_bound():
    for sid in ("c1", "c2"):
        scen = builtin_scenario(sid, 10.0, horizon=3.0)
        res = simulate(scen)
        lhs = np.linalg.norm(res.x - (res.xi - np.einsum("kij,j->ki", res.Phi, res.theta)), axis=1)
        bound = 1e-8 * (1.0 + np.linalg.norm(res.x, axis=1))
        assert np.all(lhs <= bound)


def test_open_loop_emulator_decay():
    sysm = _const_system(-np.eye(2), C=np.zeros((1, 2)), x0=[1.0, -1.0])
    scen = _scenario(sysm, gamma=100.0, horizon=3.0)
    res = simulate(scen)
    assert np.all(res.theta_hat == res.theta_hat[0])
    err = np.linalg.norm(res.estimation_error, axis=1)
    pred = np.exp(-res.t) * np.linalg.norm(res.theta_hat[0] - res.theta)
    assert np.abs(err - pred).max() <= 1e-9


def test_divergence_guard():
    # each RK4 step multiplies x by 1 + 2 + 2 + 4/3 + 2/3 = 7 at h A = 2,
    # so x first passes 1e12 at node 15.  Over 1 s the node values 7^k
    # overflow to inf near step 365, in the plant pass's second block of
    # step maps; in the third the carried inf meets a zero in the map's
    # bottom row and gives nan, which reaches x in the fourth.  Neither may
    # warn or move the first node named.
    for horizon in (0.1, 1.0):
        scen = _scenario(_const_system([[2000.0]], x0=[1.0]), horizon=horizon)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as exc:
                simulate(scen)
        assert exc.value.t == 15 * 1e-3


def test_estimator_divergence_guard():
    # h gamma |psi(0)|^2 = 1e6 at the first stage: the estimator would blow
    # up from its first step, so the run is refused before it steps, naming
    # t = 0, without a warning, as a kind of DivergenceError
    scen = builtin_scenario("c1", 1e9, horizon=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StiffnessError) as exc:
            simulate(scen)
    assert exc.value.t == 0.0
    assert isinstance(exc.value, DivergenceError)


def test_estimator_state_norm_guard():
    # a stable plant and a small gain, but theta_hat starts past the norm
    # guard: the run names t = 0 as a divergence, not as a stiff gain
    scen = replace(builtin_scenario("c1", 1.0, horizon=0.05), theta_hat0=np.array([1e13, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as exc:
            simulate(scen)
    assert not isinstance(exc.value, StiffnessError)
    assert exc.value.t == 0.0


def test_divergence_names_first_node_of_either_pass():
    # an unstable plant makes psi grow until the gradient law is stiff: the
    # estimator leaves the guard nodes before the plant does.  A plant that
    # diverges is a divergence whatever the gain, so nothing is refused as
    # stiff.
    sysm = _const_system([[50.0]], x0=[1.0])
    kw = dict(horizon=1.0, step=1e-2, xi0=np.array([2.0]))
    with pytest.raises(DivergenceError) as plant:
        simulate(_scenario(sysm, gamma=0.0, **kw))
    with pytest.raises(DivergenceError) as both:
        simulate(_scenario(sysm, gamma=1.0, **kw))
    assert not isinstance(both.value, StiffnessError)
    assert both.value.t < plant.value.t


@pytest.mark.parametrize("horizon", [7.0, 10.0])
def test_gain_past_the_rk4_limit_is_refused(horizon):
    # at gamma 1000, h gamma |psi|^2 first passes RK4's real-axis bound
    # 2.7853 at t = 4.44 on c1; unguarded, the run returned |theta_err| 1.4e5
    # from 1.4 at 7 s and a state-norm error at 10 s.  The error names gamma,
    # the step, the time and a safe step, which is 2.6 over the largest
    # gamma |psi|^2 of the run, and a run at that step runs.
    scenario = builtin_scenario("c1", 1000.0, horizon=horizon)
    safe = {7.0: r"0\.0009019", 10.0: r"0\.0008897"}[horizon]
    message = rf"^gamma 1000 with step 0\.001 .* at t=4\.44, .* = {safe} is a safe step$"
    with pytest.raises(StiffnessError, match=message) as exc:
        simulate(scenario)
    assert exc.value.t == pytest.approx(4.44, abs=1e-12)
    assert np.isfinite(simulate(replace(scenario, step=_named_step(exc))).theta_hat).all()


def test_gain_inside_the_rk4_limit_runs():
    # gamma 900 peaks at h gamma |psi|^2 = 2.66, and the Lyapunov function
    # |theta_err|^2 / gamma never increases by a step
    res = simulate(builtin_scenario("c1", 900.0, horizon=10.0))
    V = (res.theta_error ** 2).sum(axis=1) / 900.0
    assert np.diff(V).max() <= 1e-9


def test_stiffness_guard_covers_drem_and_q_outputs():
    # DREM's -M is -gamma Delta^2 I.  With q outputs the gradient law's top
    # mode is gamma times the top eigenvalue of psi^T psi, here at most 2.06
    # over the run (its trace reaches 2.54): at h = 2e-3, gamma 625 runs at
    # h lambda = 2.57, and 700 is refused at 2.88.  A run at the step either
    # refusal names runs; the old DREM rule named 1.121e-05, which it then
    # refused at t = 0.500005.
    drem = builtin_scenario("c1", 1e6, estimator="drem", horizon=2.0)
    for scenario, head, t in ((drem, r"gamma 1e\+06 with step 0\.001 ", 0.5),
                              (drift.q2_scenario(700.0), r"gamma 700 with step 0\.002 ", 1.488)):
        message = f"^{head}.* at t={t:g}, .* is a safe step$"
        with pytest.raises(StiffnessError, match=message) as exc:
            simulate(scenario)
        assert exc.value.t == pytest.approx(t, abs=1e-12)
        assert np.isfinite(simulate(replace(scenario, step=_named_step(exc))).theta_hat).all()
    assert np.isfinite(simulate(drift.q2_scenario(625.0)).theta_hat).all()


def test_plant_step_past_the_rk4_region_is_refused():
    # A = -3000 I decays, but RK4 at h A = -3 multiplies it by R(-3) = 1.375
    # a step: unguarded, gamma 0 returned 8.2e6 in each entry of x(T) (exact
    # 7e-66) and gamma 1 blamed the gain.  Both are refused at t = 0 naming
    # the plant's step, before either pass runs; at the safe step named,
    # 2.6 / 3000, R(-2.6) = 0.76 and it runs.
    sysm = _const_system(-3000.0 * np.eye(2), x0=[1.0, -1.0])
    for gamma in (0.0, 1.0):
        with pytest.raises(StiffnessError, match="plant's step 0.001 .* at t=0,") as exc:
            simulate(_scenario(sysm, gamma=gamma, horizon=0.05))
        assert exc.value.t == 0.0 and "gamma" not in str(exc.value)
        assert _named_step(exc) == pytest.approx(2.6 / 3000.0, rel=1e-3)
    res = simulate(_scenario(sysm, gamma=1.0, horizon=0.05, step=_named_step(exc)))
    assert np.abs(res.x[-1]).max() < 1.0
    # a rotation at 3000 rad/s, h w = 3, in the basis T: its eigenvalues
    # round to Re = +5.7e-14, and unguarded it returned det Phi(T) = 5.7e17
    # where the exact value is 1
    T = np.array([[0.4, 0.3], [0.0, 0.5]])
    rotation = T @ np.array([[0.0, 3000.0], [-3000.0, 0.0]]) @ np.linalg.inv(T)
    with pytest.raises(StiffnessError, match="plant's step 0.001 .* at t=0,"):
        simulate(_scenario(_const_system(rotation, x0=[1.0, 0.0]), horizon=0.05))
    # c1's modes +-i |sin t| sit on the imaginary axis, and 3 |sin 1.5| is
    # past RK4's reach there, 2 sqrt(2): a step of 3 returned det Phi(30) =
    # 0.193 although tr A = 0
    with pytest.raises(StiffnessError, match="plant's step 3 .* at t=1.5,") as exc:
        simulate(builtin_scenario("c1", 0.0, step=3.0))
    assert exc.value.t == 1.5
    # the screen leaves h ||A||_F <= 2.6 unchecked, which is sound only if
    # RK4's R(z) stays within 1 on the half-disk |z| <= 2.6, Re z <= 0; the
    # margin is thin there: max |R| = 0.981 at |z| = 2.6, 122.5 degrees
    r, th = np.meshgrid(np.linspace(0.0, 2.6, 261), np.radians(np.linspace(90.0, 270.0, 361)))
    z = (r * np.exp(1j * th)).ravel()
    assert np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24).max() <= 1.0
    # the guard's own rule on the same grid, as A = [[x, -y], [y, x]] / h
    # with modes z and its conjugate, passes every stage, and refuses a
    # mode at |z| = 2.75, 123 degrees, where |R(z)| = 1.18
    h = 1e-3
    A = np.stack([np.stack([z.real, -z.imag], -1), np.stack([z.imag, z.real], -1)], -2) / h
    tau = h * np.arange(len(z))
    assert integrate._refuse_stiff(A, tau, h, "the plant's step") is A
    c, s = 2.75 * math.cos(math.radians(123.0)), 2.75 * math.sin(math.radians(123.0))
    A[-1] = np.array([[c, -s], [s, c]]) / h
    with pytest.raises(StiffnessError, match=r"plant's step 0\.001 .* at t=94\.22,"):
        integrate._refuse_stiff(A, tau, h, "the plant's step")
    # an estimator's -M decays along the negative real axis, where RK4's
    # stability interval ends at R(-x) = 1, x = 2.78529 (Hairer & Wanner,
    # Solving ODEs II, IV.2): the same rule passes -(x / h) I just inside
    # it and refuses it just outside
    inside, outside = (-(x / h) * np.tile(np.eye(2), (3, 1, 1)) for x in (2.7852, 2.7854))
    assert integrate._refuse_stiff(inside, tau[:3], h, "gamma 1 with step") is inside
    with pytest.raises(StiffnessError, match=r"^gamma 1 with step 0\.001 .* at t=0,"):
        integrate._refuse_stiff(outside, tau[:3], h, "gamma 1 with step")


def test_simulate_deterministic():
    a = simulate(builtin_scenario("c3", 10.0, horizon=2.0))
    b = simulate(builtin_scenario("c3", 10.0, horizon=2.0))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.theta_hat, b.theta_hat)
    assert np.array_equal(a.t, b.t)


def test_simulate_grid_shape():
    res = simulate(builtin_scenario("c1", 1.0, horizon=1.0, step=1e-2))
    assert len(res.t) == 101
    assert res.t[0] == 0.0
    assert res.t[-1] == pytest.approx(1.0, abs=1e-9)
    assert res.x.shape == (101, 2)
    assert res.Phi.shape == (101, 2, 2)
    assert np.array_equal(res.Phi[0], np.eye(2))


@pytest.mark.parametrize("estimator, bound", [("gradient", 311.0), ("drem", 337.0)])
def test_peak_memory_per_node(estimator, bound):
    # MAX_SWEEP_NODES and the README's sweep limit rest on these figures: a
    # 30 s gain-100 c1 run peaks at 296 traced bytes per node with the
    # gradient law and 321 with DREM, and its result keeps 112 (2-core Xeon,
    # numpy 2.4.6); the bounds leave 5% over that.  A result array that views
    # the stage-time regression stack, not a copy of its node rows, keeps more
    scenario = builtin_scenario("c1", 100.0, estimator=estimator)
    tracemalloc.start()
    try:
        res = simulate(scenario)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.t) == 30001
    assert peak / len(res.t) <= bound
    assert kept / len(res.t) <= 118.0


def test_simulate_drem_records_regression():
    # both estimators record the regression they used; its identity holds
    # at every recorded node
    for sid in ("c1", "c2", "c3"):
        for estimator in ("gradient", "drem"):
            res = simulate(builtin_scenario(sid, 10.0, estimator=estimator, horizon=3.0))
            assert res.psi.shape == (3001, 2)
            assert res.y_reg.shape == (3001,)
            assert np.abs(res.y_reg - res.psi @ res.theta).max() <= 1e-10


def test_open_loop_builds_regression_at_nodes_only():
    # at gamma 0 nothing reads the midpoints; t[k] and tau[2k] are the same
    # doubles, so the node-only build equals a closed-loop run's bit for bit
    scen = builtin_scenario("c3", 0.0, horizon=3.0)
    calls = []
    counted = DelaySpec(fn=lambda t: calls.append(t) or scen.delay(t))
    a = simulate(replace(scen, delay=counted))
    b = simulate(replace(scen, gamma=10.0))
    assert len(np.concatenate(calls)) == len(a.t) == 3001
    for name in ("t", "x", "xi", "Phi", "psi", "y_reg"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(a.theta_hat, np.tile(scen.theta_hat0, (3001, 1)))


def _lookup_calls(scen):
    """The lengths of the delay calls and of the C calls of a run of ``scen``,
    after checking that counting them changed none of its outputs."""
    delays, Cs = [], []
    counted = replace(
        scen, delay=DelaySpec(fn=lambda t: delays.append(len(t)) or scen.delay(t)),
        system=replace(scen.system, C=lambda t: Cs.append(len(t)) or scen.system.C(t)))
    a, b = simulate(counted), simulate(scen)
    for name in ("theta_hat", "psi", "y_reg"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    return delays, Cs


@pytest.mark.parametrize("estimator, gamma, rows", [
    ("drem", 10.0, 6001), ("gradient", 10.0, 6001), ("gradient", 0.0, 3001)])
def test_regression_is_one_lookup_over_every_lag(estimator, gamma, rows):
    # one delay call and one C call on every row the run looks up: the 6001
    # stage times of 3 s, DREM's lag 0.5 being a delay line of them (1000
    # stages of 5e-4); the nodes alone at gamma 0
    delays, Cs = _lookup_calls(builtin_scenario("c3", gamma, estimator, horizon=3.0))
    assert delays == Cs == [rows]


def test_lag_off_the_stage_grid_joins_the_one_lookup():
    # at h = 3e-3 the lag 0.5 is 333.3 stages of 1.5e-3: its 2001 rows are
    # looked up in the same delay call and C call as the 2001 stage times
    delays, Cs = _lookup_calls(builtin_scenario("c3", 10.0, "drem", horizon=3.0, step=3e-3))
    assert delays == Cs == [4002]


@pytest.mark.parametrize("scen", [builtin_scenario(sid, 100.0, "drem") for sid in ("c1", "c2", "c3")]
                         + [drift.drem4_scenario()], ids=["c1", "c2", "c3", "drem4"])
def test_delay_line_rows_are_the_looked_up_rows(monkeypatch, scen):
    # a lag d that is stage k, tau[k] == d, reads row 0 k stages back: its
    # rows before k are exactly zero, row k is row 0 at t = 0, and every row
    # is within rounding of the lookup at tau - d (at most 2.04e-14 over these
    # 30 s runs, where |psi| and |y_reg| reach 5.5; 2-core Xeon, numpy 2.4.6)
    calls = []
    build = integrate._regression
    monkeypatch.setattr(integrate, "_regression", lambda *a: calls.append(a) or build(*a))
    simulate(scen)
    (_, t, Z, dZ, tau, lags), = calls
    M, Y = build(*calls[0])
    assert len(lags) == scen.system.n - 1
    for i, d in enumerate(lags, 1):
        k = round(d / (0.5 * scen.step))
        assert tau[k] == d
        M_d, Y_d = build(scen, t, Z, dZ, tau - d)
        assert np.all(M[:k, i] == 0.0) and np.all(Y[:k, i] == 0.0)
        assert np.array_equal(M[k, i], M[0, 0]) and Y[k, i] == Y[0, 0]
        assert np.abs(M[:, i] - M_d[:, 0]).max() <= 5e-14
        assert np.abs(Y[:, i] - Y_d[:, 0]).max() <= 5e-14


@pytest.mark.parametrize("h", [1e-3, 3e-3, 1.0 / 3.0])
@pytest.mark.parametrize("steps", [1, 2, 1025, 30000])
def test_lookup_interval_is_searchsorted(steps, h):
    # every node, the float either side of each inside [0, t[-1]], and the
    # last node: floor(s / h) corrected equals the bisection's interval, and
    # the interpolant returns each node's value bit for bit
    t = h * np.arange(steps + 1)
    s = np.concatenate([t, np.nextafter(t[1:], -np.inf), np.nextafter(t[:-1], np.inf), t[-1:]])
    want = np.minimum(np.searchsorted(t, s, "right") - 1, len(t) - 2)
    assert np.array_equal(integrate._interval(t, s), want)
    Z = np.random.default_rng(steps).standard_normal((len(t), 3, 2))
    dZ = np.random.default_rng(steps + 1).standard_normal((len(t), 3, 2))
    assert np.array_equal(integrate._hermite(t, Z, dZ, t), Z)


def test_delayed_scenario_uses_history():
    # with tau = 1 the lookups land between earlier nodes, where the Hermite
    # interpolant keeps the regression identity
    res = simulate(builtin_scenario("c2", 10.0, estimator="drem", horizon=3.0))
    assert np.abs(res.y_reg - res.psi @ res.theta).max() <= 1e-10
    assert np.array_equal(res.psi[:1001], np.tile([1.0, 0.0], (1001, 1)))


def test_drem_lag_shorter_than_step():
    # the lagged row of a stage lies inside the step being taken; it is read
    # from the plant's dense output like every other lookup
    res = simulate(builtin_scenario("c1", 100.0, estimator="drem", horizon=2.0,
                                    step=1e-2, drem_delays=(4e-3,)))
    err = np.abs(res.theta_error)
    assert np.diff(err, axis=0).max() <= 1e-12
    assert np.all(err[-1] < err[0])


@pytest.mark.parametrize("sid", ["c1", "c2"])
def test_gradient_estimate_is_fourth_order(sid):
    ref = simulate(builtin_scenario(sid, 10.0, horizon=4.0, step=1.25e-4))
    errs = []
    for h in (8e-3, 4e-3, 2e-3, 1e-3):
        res = simulate(builtin_scenario(sid, 10.0, horizon=4.0, step=h))
        stride = round(h / 1.25e-4)
        errs.append(np.abs(res.theta_hat - ref.theta_hat[::stride]).max())
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(r >= 12.0 for r in ratios), ratios


def _stagewise_rk4(A, F, Z0, h, nsteps):
    # reference: Z' = A(t) Z + F(t), RK4 one stage at a time
    Z = [Z0]
    for k in range(nsteps):
        t, z = k * h, Z[-1]
        k1 = A(t) @ z + F(t)
        k2 = A(t + h / 2) @ (z + h / 2 * k1) + F(t + h / 2)
        k3 = A(t + h / 2) @ (z + h / 2 * k2) + F(t + h / 2)
        k4 = A(t + h) @ (z + h * k3) + F(t + h)
        Z.append(z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    return np.array(Z)


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 2),
       decay=st.floats(0.0, 2.0), spin=st.floats(0.0, 6.0), w=st.floats(0.1, 10.0),
       step=st.floats(1e-3, 0.0125), nsteps=st.integers(1, 600))
@example(seed=0, n=2, m=1, decay=0.5, spin=3.0, w=2.0, step=0.01, nsteps=400)
# one step; one short of a chunk of 32 step maps, exactly one, one over;
# one short of a block of 1,024 step maps, exactly one, one over; two
# blocks and one step
@example(seed=1, n=3, m=2, decay=0.5, spin=3.0, w=2.0, step=0.01, nsteps=1)
@example(seed=2, n=2, m=1, decay=0.5, spin=3.0, w=2.0, step=0.01, nsteps=31)
@example(seed=3, n=2, m=2, decay=0.5, spin=3.0, w=2.0, step=0.01, nsteps=32)
@example(seed=4, n=1, m=1, decay=0.5, spin=3.0, w=2.0, step=0.01, nsteps=33)
@example(seed=5, n=3, m=1, decay=0.2, spin=5.0, w=7.0, step=0.005, nsteps=1023)
@example(seed=6, n=2, m=1, decay=0.5, spin=3.0, w=2.0, step=0.005, nsteps=1024)
@example(seed=7, n=2, m=2, decay=0.5, spin=3.0, w=2.0, step=0.005, nsteps=1025)
@example(seed=8, n=3, m=1, decay=0.2, spin=5.0, w=7.0, step=0.003, nsteps=2049)
def test_plant_pass_matches_stagewise_rk4(seed, n, m, decay, spin, w, step, nsteps):
    # A(t) = A0 + A1 sin(w t) with A0 decaying (-decay I) and oscillating
    # (spin times a skew part); B u varies in time through u.  Drawn runs
    # of up to 600 steps cross up to 19 of the scan's chunks of step maps,
    # the examples its block edges too, and a horizon of at most 7.5 s
    # keeps the fastest growth far below the divergence guard.
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n, n))
    A0 = -decay * np.eye(n) + spin * (S - S.T) / 2 + 0.3 * rng.standard_normal((n, n))
    A1 = 0.5 * rng.standard_normal((n, n))
    B = rng.standard_normal((n, m))
    amp, freq = rng.standard_normal(m), rng.uniform(0.0, 5.0, m)
    x0, xi0 = rng.standard_normal(n), rng.standard_normal(n)
    sysm = SystemSpec(
        n=n, m=m, q=1,
        A=lambda t: A0 + A1 * np.sin(w * t)[:, None, None],
        B=lambda t: np.broadcast_to(B, t.shape + B.shape),
        C=lambda t: np.ones(t.shape + (1, n)),
        u=lambda t: amp * np.cos(np.multiply.outer(t, freq)),
        x0=x0,
    )
    res = simulate(_scenario(sysm, horizon=step * nsteps, step=step, xi0=xi0))
    assert len(res.t) == nsteps + 1
    _assert_matches_stagewise_rk4(res, sysm, xi0, step)


def test_plant_pass_matches_stagewise_rk4_over_a_long_run():
    # a 30 s run carries the node values across 30 blocks of step maps and
    # 938 chunks, on the sinusoidally delayed benchmark plant
    scen = builtin_scenario("c3", 0.0, xi0=(0.5, -0.25))
    res = simulate(scen)
    assert len(res.t) == 30001
    _assert_matches_stagewise_rk4(res, scen.system, scen.xi0, scen.step)


def _assert_matches_stagewise_rk4(res, sysm, xi0, step):
    # x, xi and Phi against _stagewise_rk4 on the same plant, and the copy
    # identity xi - x = Phi (xi0 - x0), within 1e-12 of the reference's size
    n = sysm.n

    def F(t):
        bu = sysm.B(np.array([t]))[0] @ sysm.u(np.array([t]))[0]
        return np.column_stack([bu, bu, np.zeros((n, n))])

    ref = _stagewise_rk4(lambda t: sysm.A(np.array([t]))[0], F,
                         np.column_stack([sysm.x0, xi0, np.eye(n)]), step, len(res.t) - 1)
    scale = 1.0 + np.abs(ref).max()
    for got, want in ((res.x, ref[:, :, 0]), (res.xi, ref[:, :, 1]), (res.Phi, ref[:, :, 2:])):
        assert np.abs(got - want).max() <= 1e-12 * scale
    identity = res.xi - res.x - np.einsum("kij,j->ki", res.Phi, xi0 - sysm.x0)
    assert np.abs(identity).max() <= 1e-12 * scale


def _stagewise_law_rk4(rate, theta_hat0, h, nsteps):
    # reference: RK4 on theta_hat' = rate(j, theta_hat) one stage at a time,
    # j the stage time index (node k is 2k, the midpoint after it 2k + 1)
    th = [np.asarray(theta_hat0, dtype=float)]
    for k in range(nsteps):
        y = th[-1]
        k1 = rate(2 * k, y)
        k2 = rate(2 * k + 1, y + h / 2 * k1)
        k3 = rate(2 * k + 1, y + h / 2 * k2)
        k4 = rate(2 * k + 2, y + h * k3)
        th.append(y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    return np.array(th)


@pytest.mark.parametrize("sid, estimator, gamma", [
    (sid, estimator, gamma) for sid in ("c1", "c2", "c3") for estimator in ("gradient", "drem")
    for gamma in (1.0, 10.0, 100.0)] + [("q2", "gradient", gamma) for gamma in (1.0, 10.0, 100.0)])
def test_estimator_scan_is_the_documented_law(monkeypatch, sid, estimator, gamma):
    # the scanned theta_hat against RK4 stepping gradient_update or
    # drem_update one stage at a time on the run's own stage arrays, over
    # 1000 steps (four blocks of step maps); "q2" is the q-output gradient
    rows = []
    build = integrate._regression
    monkeypatch.setattr(integrate, "_regression", lambda *a: rows.append(build(*a)) or rows[-1])
    scen = (drift.q2_scenario(gamma) if sid == "q2" else
            builtin_scenario(sid, gamma, estimator, horizon=2.0, step=2e-3))
    res = simulate(scen)
    (M, Y), = rows
    if estimator == "gradient":
        def rate(j, th):
            return integrate.gradient_update(M[j, 0], Y[j, 0], th, gamma)
    else:
        Delta, Y_mixed = mix(M, Y)

        def rate(j, th):
            return integrate.drem_update(Delta[j], Y_mixed[j], th, gamma)
    ref = _stagewise_law_rk4(rate, scen.theta_hat0, scen.step, len(res.t) - 1)
    assert len(M) == 2 * len(res.t) - 1
    assert np.abs(res.theta_hat - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())
    # the run moved theta_hat, so the comparison is not between two constants
    assert np.abs(ref[-1] - ref[0]).max() > 1e-3


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("steps", [1, 31, 32, 33, 1023, 1024, 1025, 2049])
def test_scalar_scan_is_the_matrix_scan_bit_for_bit(steps, n):
    # DREM's scan against the matrix scan on A = a I, across the edges of a
    # chunk of 32 steps and a block of 1,024 step maps: the same association
    # makes every node equal, not merely close, where matmul rounds each
    # product of the (n + 1)-square maps, as at n = 2 and 4 (the built-in
    # and tools/drift.py's DREM plants).  At n = 1 OpenBLAS fuses the
    # multiply-add of the matrix scan's batched 2 x 2 by 2 x 1 product
    # (numpy 2.4.6, 2-core Xeon), so there the two agree to rounding.
    rng = np.random.default_rng(10 * steps + n)
    a = -50.0 * rng.random(2 * steps + 1)
    a[rng.integers(len(a))] = 0.0
    v, z0, h = rng.standard_normal((len(a), n)), rng.standard_normal(n), 0.01
    want = integrate._affine_scan(a[:, None, None] * np.eye(n), v, z0[:, None], np.ones(1), h)
    got, want = integrate._scalar_scan(a, v, z0, h), want[:, :, 0]
    if n == 1:
        assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()
    else:
        assert np.array_equal(got, want)


def _random_plant(rng, n, w):
    # a contracting drift, a rotating part and a small time-varying one keep
    # |Phi| near 1, and a unit C keeps gamma |psi|^2 h inside RK4's range
    S = rng.standard_normal((n, n))
    A0 = -0.5 * np.eye(n) + 2.0 * (S - S.T)
    A1 = 0.3 * rng.standard_normal((n, n))
    B = rng.standard_normal((n, 1))
    C = rng.standard_normal((1, n))
    C /= np.linalg.norm(C)
    return SystemSpec(
        n=n, m=1, q=1,
        A=lambda t: A0 + A1 * np.sin(w * t)[:, None, None],
        B=lambda t: np.broadcast_to(B, t.shape + B.shape),
        C=lambda t: np.broadcast_to(C, t.shape + C.shape),
        u=lambda t: np.cos(w * t)[:, None],
        x0=rng.standard_normal(n),
    )


_DELAYS = st.one_of(
    st.just(DelaySpec()),
    st.floats(0.0, 1.5).map(lambda b: DelaySpec(base=b)),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 4.0)).map(
        lambda p: DelaySpec(base=p[0] + p[1], amplitude=p[1], frequency=p[2])),
    # a proportional lag, clamped to phi = 0 until c t exceeds d
    st.tuples(st.floats(0.2, 1.0), st.floats(0.0, 1.0)).map(
        lambda p: DelaySpec(fn=lambda t: p[0] * t - p[1])),
)


@settings(max_examples=150, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), w=st.floats(0.1, 5.0),
       delay=_DELAYS, gamma=st.one_of(st.just(0.0), st.floats(0.1, 50.0)),
       estimator=st.sampled_from(["gradient", "drem"]))
def test_regression_identities_hold_through_simulate(seed, n, w, delay, gamma, estimator):
    # xi - x = Phi theta and y_reg = psi . theta at every node, whatever the
    # plant, the delay (clamped at the start or not), the gain and the law
    rng = np.random.default_rng(seed)
    sysm = _random_plant(rng, n, w)
    res = simulate(_scenario(sysm, gamma=gamma, horizon=2.0, step=1e-2, delay=delay,
                             estimator=estimator, xi0=rng.standard_normal(n)))
    scale = 1.0 + max(np.abs(res.x).max(), np.abs(res.xi).max(), np.abs(res.Phi).max())
    copy_error = res.xi - res.x - np.einsum("kij,j->ki", res.Phi, res.theta)
    assert np.abs(copy_error).max() <= 1e-12 * scale
    assert res.psi.shape == (len(res.t), n) and res.y_reg.shape == (len(res.t),)
    resid = res.y_reg - res.psi @ res.theta
    assert np.abs(resid).max() <= 1e-12 * scale * (1.0 + np.abs(res.theta).max())


def test_drem_on_a_four_state_plant():
    # the 4-state run tools/drift.py probes, cut to 10 s: DREM mixes 4 x 4
    # regressors, zero-filled and singular until the third lag is covered at t = 1.5
    err = np.abs(simulate(drift.drem4_scenario(10.0)).theta_error)
    assert np.diff(err, axis=0).max() <= 1e-9
    assert err[-1].max() <= 1e-6 * err[0].min()


@settings(max_examples=10, deadline=None, database=None)
@given(shift=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
       sid=st.sampled_from(["c1", "c2", "c3"]), estimator=st.sampled_from(["gradient", "drem"]),
       gamma=st.sampled_from([1.0, 100.0]))
def test_theta_error_ignores_a_common_shift_of_xi0_and_theta_hat0(shift, sid, estimator, gamma):
    # theta = xi0 - x0 moves with xi0 and y_reg - psi . theta_hat depends on
    # theta_hat - theta alone, so shifting xi0 and theta_hat0 by one vector
    # leaves theta_error unchanged; a regression read at the wrong time breaks it
    xi0, theta_hat0 = np.array([0.7, -1.3]), np.array([5.0, 2.0])
    base, moved = (simulate(builtin_scenario(sid, gamma, estimator, horizon=1.5,
                                             xi0=xi0 + v, theta_hat0=theta_hat0 + v))
                   for v in (np.zeros(2), np.array(shift)))
    err = base.theta_error
    assert np.all(np.abs(moved.theta_error - err) <= 1e-12 * np.maximum(1.0, np.abs(err)))


_BAD_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, "1", None, [2.0, 3.0]])


@settings(max_examples=60, deadline=None, database=None)
@given(field=st.sampled_from(["x0", "xi0", "theta_hat0", "gamma", "step", "horizon",
                              "drem_delays", "base"]),
       bad=_BAD_NUMBERS, wrong_length=st.booleans())
def test_bad_input_fails_at_construction(field, bad, wrong_length):
    # a non-finite, non-numeric, ragged or wrongly shaped parameter raises ValueError naming it
    # while the scenario is built: no coefficient or delay is evaluated
    calls = []

    def counted(value):
        return lambda t: calls.append(t) or value

    sysm = dict(n=2, m=1, q=1, A=counted(np.zeros((2, 2))), B=counted(np.zeros((2, 1))),
                C=counted(np.ones((1, 2))), u=counted(np.zeros(1)), x0=np.zeros(2))
    kw = dict(id="bad", delay=DelaySpec(fn=counted(0.0)), gamma=1.0, estimator="drem",
              horizon=1.0, step=1e-2, xi0=np.zeros(2), theta_hat0=np.zeros(2))
    vector = [0.0, 0.0, 0.0] if wrong_length else [0.0, bad]
    if field == "x0":
        sysm["x0"] = vector
    elif field in ("xi0", "theta_hat0"):
        kw[field] = vector
    elif field == "drem_delays":
        kw[field] = (0.5, 1.0) if wrong_length else (bad,)
    elif field != "base":
        kw[field] = bad

    def build():
        if field == "base":
            kw["delay"] = DelaySpec(base=bad)
        return NamedScenario(system=SystemSpec(**sysm), **kw)

    with pytest.raises(ValueError, match=field):
        simulate(build())
    assert calls == []
