"""The determinant certificate, and Phi against a diagonal closed form."""

import math

import numpy as np

from gpebo import (
    DelaySpec,
    NamedScenario,
    SystemSpec,
    TrajectoryHistory,
    builtin_scenario,
    liouville_det,
    simulate,
)


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
    scen = NamedScenario(id="contract", system=sysm, delay=DelaySpec(),
                         gamma=0.0, estimator="gradient", horizon=5.0, step=1e-3,
                         xi0=np.zeros(n), theta_hat0=np.zeros(n))
    res = simulate(scen)
    # det Phi(t) = e^{-2t} here; certificate deviation stays at solver level
    dev = liouville_det(res.phi_history(), sysm.A)
    assert dev <= 1e-6
    assert abs(np.linalg.det(res.Phi[-1]) - math.exp(-2.0 * res.t[-1])) <= 1e-9
    # a slice from t = 1 starts at det Phi = e^{-2}, not 1: still consistent
    assert res.t[1000] == 1.0
    sliced = TrajectoryHistory.from_grid(res.t[1000:], res.Phi[1000:])
    assert liouville_det(sliced, sysm.A) <= 1e-12


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
    scen = NamedScenario(id="diag", system=sysm, delay=DelaySpec(),
                         gamma=0.0, estimator="gradient", horizon=10.0, step=1e-3,
                         xi0=np.zeros(2), theta_hat0=np.zeros(2))
    res = simulate(scen)
    ref = np.diag(np.exp(np.diag(A) * res.t[-1]))
    assert np.abs(res.Phi[-1] - ref).max() <= 1e-8


def test_liouville_static_identity():
    times = np.linspace(0.0, 2.0, 21)
    hist = TrajectoryHistory.from_grid(times, np.broadcast_to(np.eye(2), (21, 2, 2)))
    dev = liouville_det(hist, lambda t: np.zeros(t.shape + (2, 2)))
    assert dev == 0.0
