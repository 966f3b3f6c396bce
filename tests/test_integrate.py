"""Three-pass fixed-step integration: step exactness, order, and guards."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpebo import (
    DelaySpec,
    DivergenceError,
    LtiOracle,
    NamedScenario,
    SystemSpec,
    builtin_scenario,
    simulate,
)


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
        id="test", system=system, delay=kw.pop("delay", DelaySpec.identity()),
        gamma=gamma, estimator=kw.pop("estimator", "gradient"),
        horizon=horizon, step=step,
        xi0=kw.pop("xi0", np.zeros(n)),
        theta_hat0=np.zeros(n) if theta_hat0 is None else np.asarray(theta_hat0, float),
    )


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


def test_grid_halving_is_fourth_order():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    oracle = LtiOracle(A)
    errs = []
    for h in (0.1, 0.05, 0.025, 0.0125):
        res = simulate(_scenario(_const_system(A), horizon=10.0, step=h))
        errs.append(np.abs(res.Phi[-1] - oracle.phi(float(res.t[-1]))).max())
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(r >= 12.0 for r in ratios)


def test_divergence_guard():
    # each RK4 step multiplies x by 1 + 2 + 2 + 4/3 + 2/3 = 7 at h A = 2,
    # so x first passes 1e12 at node 15
    scen = _scenario(_const_system([[2000.0]], x0=[1.0]), horizon=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as exc:
            simulate(scen)
    assert exc.value.t == 15 * 1e-3


def test_estimator_divergence_guard():
    scen = builtin_scenario("c1", 1e9, horizon=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as exc:
            simulate(scen)
    assert exc.value.t == 1e-3


def test_divergence_names_first_node_of_either_pass():
    # an unstable plant makes psi grow until the gradient law is stiff: the
    # estimator leaves the guard nodes before the plant does
    sysm = _const_system([[50.0]], x0=[1.0])
    kw = dict(horizon=1.0, step=1e-2, xi0=np.array([2.0]))
    with pytest.raises(DivergenceError) as plant:
        simulate(_scenario(sysm, gamma=0.0, **kw))
    with pytest.raises(DivergenceError) as both:
        simulate(_scenario(sysm, gamma=1.0, **kw))
    assert both.value.t < plant.value.t


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
    counted = DelaySpec.custom(lambda t: calls.append(t) or scen.delay(t))
    a = simulate(replace(scen, delay=counted))
    b = simulate(replace(scen, gamma=10.0))
    assert len(np.concatenate(calls)) == len(a.t) == 3001
    for name in ("t", "x", "xi", "Phi", "psi", "y_reg"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(a.theta_hat, np.tile(scen.theta_hat0, (3001, 1)))


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
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), m=st.integers(1, 2),
       decay=st.floats(0.0, 2.0), spin=st.floats(0.0, 6.0), w=st.floats(0.1, 10.0),
       step=st.floats(1e-3, 0.0125), nsteps=st.integers(1, 400))
@example(seed=0, n=2, m=1, decay=0.5, spin=3.0, w=2.0, step=0.01, nsteps=400)
def test_plant_pass_matches_stagewise_rk4(seed, n, m, decay, spin, w, step, nsteps):
    # A(t) = A0 + A1 sin(w t) with A0 decaying (-decay I) and oscillating
    # (spin times a skew part); B u varies in time through u.  Runs of up
    # to 400 steps cross the plant pass's blocks of step maps, and a 5 s
    # horizon keeps the fastest growth far below the divergence guard.
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

    def F(t):
        bu = B @ sysm.u(np.array([t]))[0]
        return np.column_stack([bu, bu, np.zeros((n, n))])

    ref = _stagewise_rk4(lambda t: sysm.A(np.array([t]))[0], F,
                         np.column_stack([x0, xi0, np.eye(n)]), step, nsteps)
    scale = 1.0 + np.abs(ref).max()
    for got, want in ((res.x, ref[:, :, 0]), (res.xi, ref[:, :, 1]), (res.Phi, ref[:, :, 2:])):
        assert np.abs(got - want).max() <= 1e-12 * scale
    identity = res.xi - res.x - np.einsum("kij,j->ki", res.Phi, xi0 - x0)
    assert np.abs(identity).max() <= 1e-12 * scale


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
    st.just(DelaySpec.identity()),
    st.floats(0.0, 1.5).map(DelaySpec.constant),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 4.0)).map(
        lambda p: DelaySpec.sinusoidal(p[0] + p[1], p[1], p[2])),
    # a proportional lag, clamped to phi = 0 until c t exceeds d
    st.tuples(st.floats(0.2, 1.0), st.floats(0.0, 1.0)).map(
        lambda p: DelaySpec.custom(lambda t: p[0] * t - p[1])),
)


@settings(max_examples=150, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), w=st.floats(0.1, 5.0),
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


_BAD_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=60, deadline=None, database=None)
@given(field=st.sampled_from(["x0", "xi0", "theta_hat0", "gamma", "step", "horizon",
                              "drem_delays", "tau"]),
       bad=_BAD_NUMBERS, wrong_length=st.booleans())
def test_bad_input_fails_at_construction(field, bad, wrong_length):
    # a non-finite or wrongly shaped parameter raises ValueError naming it
    # while the scenario is built: no coefficient or delay is evaluated
    calls = []

    def counted(value):
        return lambda t: calls.append(t) or value

    sysm = dict(n=2, m=1, q=1, A=counted(np.zeros((2, 2))), B=counted(np.zeros((2, 1))),
                C=counted(np.ones((1, 2))), u=counted(np.zeros(1)), x0=np.zeros(2))
    kw = dict(id="bad", delay=DelaySpec.custom(counted(0.0)), gamma=1.0, estimator="drem",
              horizon=1.0, step=1e-2, xi0=np.zeros(2), theta_hat0=np.zeros(2))
    vector = [0.0, 0.0, 0.0] if wrong_length else [0.0, bad]
    if field == "x0":
        sysm["x0"] = vector
    elif field in ("xi0", "theta_hat0"):
        kw[field] = vector
    elif field == "drem_delays":
        kw[field] = (0.5, 1.0) if wrong_length else (bad,)
    elif field != "tau":
        kw[field] = bad

    def build():
        if field == "tau":
            kw["delay"] = DelaySpec(kind="constant", tau=bad)
        return NamedScenario(system=SystemSpec(**sysm), **kw)

    with pytest.raises(ValueError, match=field):
        simulate(build())
    assert calls == []
