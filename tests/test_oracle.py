"""Closed-form transition matrices and the determinant certificate."""

import math

import numpy as np
import pytest
import scipy.linalg

from gpebo import (
    DelaySpec,
    LtiOracle,
    NamedScenario,
    SystemSpec,
    builtin_scenario,
    liouville_det,
    matrix_exponential,
    simulate,
)


def test_zero_matrix():
    orc = LtiOracle(np.zeros((3, 3)))
    for t in (0.0, 1.5, -2.0):
        assert np.array_equal(orc.phi(t), np.eye(3))


def test_nilpotent_case():
    orc = LtiOracle(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(orc.phi(2.0), np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_rotation_case():
    orc = LtiOracle(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    got = orc.phi(math.pi / 2)
    assert np.abs(got - np.array([[0.0, 1.0], [-1.0, 0.0]])).max() <= 1e-15
    t = 0.7
    expected = np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
    assert np.abs(orc.phi(t) - expected).max() <= 1e-15


def test_diagonal_case():
    orc = LtiOracle(np.diag([-1.0, -2.0]))
    got = orc.phi(3.0)
    assert got[0, 0] == pytest.approx(math.exp(-3.0), rel=1e-15)
    assert got[1, 1] == pytest.approx(math.exp(-6.0), rel=1e-15)
    assert got[0, 1] == 0.0


def test_identity_at_time_zero():
    rng = np.random.default_rng(41)
    for _ in range(5):
        A = rng.standard_normal((3, 3))
        assert np.abs(LtiOracle(A).phi(0.0) - np.eye(3)).max() <= 1e-15


def test_general_path_agrees_with_special_cases():
    cases = [
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.diag([-1.0, 0.5]),
    ]
    for A in cases:
        orc = LtiOracle(A)
        for t in (0.3, 1.0, 4.0):
            assert np.abs(orc.phi(t) - matrix_exponential(A * t)).max() <= 1e-12


def test_general_path_agrees_with_scipy():
    rng = np.random.default_rng(43)
    for n in (2, 3):
        for _ in range(25):
            A = rng.uniform(-1.5, 1.5, size=(n, n))
            for t in (0.5, 2.0):
                ours = matrix_exponential(A * t)
                ref = scipy.linalg.expm(A * t)
                scale = 1.0 + np.abs(ref).max()
                assert np.abs(ours - ref).max() <= 1e-12 * scale


def test_semigroup_property():
    rng = np.random.default_rng(47)
    mats = [
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
        np.diag([-1.0, -0.25]),
        rng.uniform(-1.0, 1.0, size=(3, 3)),
    ]
    for A in mats:
        orc = LtiOracle(A)
        for _ in range(10):
            t, s = rng.uniform(-2.0, 2.0, size=2)
            lhs = orc.phi(float(t + s))
            rhs = orc.phi(float(t)) @ orc.phi(float(s))
            assert np.abs(lhs - rhs).max() <= 1e-10


def test_matrix_exponential_validates_input():
    with pytest.raises(ValueError):
        matrix_exponential(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        LtiOracle(np.zeros(4))


def test_liouville_zero_trace_system():
    res = simulate(builtin_scenario("c1", 0.0, horizon=5.0))
    dev = liouville_det(res.phi_history(), res.scenario.system.A)
    assert dev <= 1e-6


def test_liouville_contracting_system():
    n = 2
    sysm = SystemSpec(
        n=n, m=1, q=1,
        A=lambda t: np.tile(-np.eye(n), (len(t), 1, 1)),
        B=lambda t: np.zeros(t.shape + (n, 1)),
        C=lambda t: np.tile([[1.0, 0.0]], (len(t), 1, 1)),
        u=lambda t: np.zeros(t.shape + (1,)),
        x0=np.zeros(n),
    )
    scen = NamedScenario(id="contract", system=sysm, delay=DelaySpec.identity(),
                         gamma=0.0, estimator="gradient", horizon=5.0, step=1e-3,
                         xi0=np.zeros(n), theta_hat0=np.zeros(n))
    res = simulate(scen)
    # det Phi(t) = e^{-2t} here; certificate deviation stays at solver level
    dev = liouville_det(res.phi_history(), sysm.A)
    assert dev <= 1e-6
    assert abs(np.linalg.det(res.Phi[-1]) - math.exp(-2.0 * res.t[-1])) <= 1e-9


def test_rk4_matches_diagonal_closed_form_at_default_step():
    A = np.diag([-1.0, -0.25])
    sysm = SystemSpec(
        n=2, m=1, q=1,
        A=lambda t: np.tile(A, (len(t), 1, 1)),
        B=lambda t: np.zeros(t.shape + (2, 1)),
        C=lambda t: np.tile([[1.0, 0.0]], (len(t), 1, 1)),
        u=lambda t: np.zeros(t.shape + (1,)),
        x0=np.zeros(2),
    )
    scen = NamedScenario(id="diag", system=sysm, delay=DelaySpec.identity(),
                         gamma=0.0, estimator="gradient", horizon=10.0, step=1e-3,
                         xi0=np.zeros(2), theta_hat0=np.zeros(2))
    res = simulate(scen)
    ref = LtiOracle(A).phi(float(res.t[-1]))
    assert np.abs(res.Phi[-1] - ref).max() <= 1e-8


def test_liouville_static_identity():
    from gpebo import TrajectoryHistory

    times = np.linspace(0.0, 2.0, 21)
    hist = TrajectoryHistory.from_grid(times, np.broadcast_to(np.eye(2), (21, 2, 2)))
    dev = liouville_det(hist, lambda t: np.zeros(t.shape + (2, 2)))
    assert dev == 0.0
