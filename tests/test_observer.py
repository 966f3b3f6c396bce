"""Gradient update law, the recorded regression, and the state estimate."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gpebo import (
    DelaySpec,
    NamedScenario,
    SimulationResult,
    SystemSpec,
    builtin_scenario,
    simulate,
)
from gpebo.integrate import drem_update, gradient_update


def test_scalar_gain_matches_identity_matrix():
    # gamma * psi * resid gives the same bits as (gamma I) psi * resid, the
    # matrix-gain form; for q outputs gamma * psi resid likewise
    rng = np.random.default_rng(7)
    for _ in range(100):
        psi, theta_hat = rng.standard_normal(3), rng.standard_normal(3)
        y_reg = rng.standard_normal()
        Gamma = 37.0 * np.eye(3)
        assert np.array_equal(gradient_update(psi, y_reg, theta_hat, 37.0),
                              (Gamma @ psi) * (y_reg - psi @ theta_hat))
        psi, y_reg = rng.standard_normal((3, 2)), rng.standard_normal(2)
        assert np.array_equal(gradient_update(psi, y_reg, theta_hat, 37.0),
                              Gamma @ (psi @ (y_reg - psi.T @ theta_hat)))


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf, "1"])
@pytest.mark.parametrize("law", [gradient_update, drem_update])
def test_laws_reject_bad_gain(law, gamma):
    with pytest.raises(ValueError, match="gamma"):
        law(np.ones(2), 1.0, np.zeros(2), gamma)


def _result(xi, Phi, theta_hat):
    """A one-node SimulationResult holding just what xhat reads."""
    return SimulationResult(scenario=None, t=np.zeros(1), x=None, xi=xi[None], Phi=Phi[None],
                            theta_hat=theta_hat[None], theta=None, psi=None, y_reg=None)


def test_xhat_exact_parameter():
    # theta_hat frozen at theta open loop: xhat = xi - Phi theta = x
    scen = builtin_scenario("c2", 0.0, horizon=5.0, theta_hat0=np.array([-1.0, 1.0]))
    res = simulate(scen)
    assert np.array_equal(res.theta_hat[-1], res.theta)
    assert np.abs(res.xhat - res.x).max() <= 1e-12


def test_xhat_zero_transition_matrix():
    xi = np.array([2.0, 3.0])
    assert np.array_equal(_result(xi, np.zeros((2, 2)), np.array([9.0, -9.0])).xhat[0], xi)


def test_xhat_hand_case():
    got = _result(np.zeros(2), np.eye(2), np.array([1.0, -1.0])).xhat[0]
    assert np.array_equal(got, np.array([-1.0, 1.0]))


def test_gradient_update_zero_regressor():
    rate = gradient_update(np.zeros(2), 0.0, np.array([5.0, -2.0]), 100.0)
    assert np.array_equal(rate, np.zeros(2))


def test_gradient_update_zero_residual():
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(2)
    theta = rng.standard_normal(2)
    rate = gradient_update(psi, float(psi @ theta), theta, 10.0)
    assert np.abs(rate).max() <= 1e-15


def test_gradient_update_scalar_rate():
    # psi = 1, y = 0, theta_hat = 1, gamma = 1  ->  rate -1
    rate = gradient_update(np.array([1.0]), 0.0, np.array([1.0]), 1.0)
    assert rate[0] == -1.0


def test_multi_output_gradient_run():
    # full-state measurement C = I through a constant delay: psi is (n, q)
    # at every node and the law takes its q-output branch
    sysm = replace(builtin_scenario("c1", 0.0).system, q=2,
                   C=lambda t: np.tile(np.eye(2), (len(t), 1, 1)))
    scen = NamedScenario(
        id="q2", system=sysm, delay=DelaySpec(base=0.5), gamma=10.0,
        estimator="gradient", horizon=10.0, step=1e-2, xi0=np.zeros(2),
        theta_hat0=np.zeros(2),
    )
    res = simulate(scen)
    assert res.psi.shape == (1001, 2, 2) and res.y_reg.shape == (1001, 2)
    assert np.abs(res.y_reg - np.einsum("knq,n->kq", res.psi, res.theta)).max() <= 1e-12
    err = np.linalg.norm(res.theta_error, axis=1)
    # non-increasing up to the rounding of theta_hat, once err is near 1e-15
    assert np.diff(err).max() <= 4.0 * np.finfo(float).eps * np.linalg.norm(res.theta)
    assert err[-1] <= 1e-10


def _scalar_frozen_plant():
    return SystemSpec(
        n=1, m=1, q=1,
        A=lambda t: np.zeros(t.shape + (1, 1)),
        B=lambda t: np.zeros(t.shape + (1, 1)),
        C=lambda t: np.ones(t.shape + (1, 1)),
        u=lambda t: np.zeros(t.shape + (1,)),
        x0=np.zeros(1),
    )


def test_scalar_estimate_decays_exponentially():
    # constant unit regressor: theta_hat(t) = e^{-t} toward theta = 0
    scen = NamedScenario(
        id="scalar", system=_scalar_frozen_plant(), delay=DelaySpec(),
        gamma=1.0, estimator="gradient", horizon=1.0, step=1e-3,
        xi0=np.zeros(1), theta_hat0=np.array([1.0]),
    )
    res = simulate(scen)
    assert abs(res.theta_hat[-1, 0] - math.exp(-1.0)) <= 1e-10
    # the law saw psi = 1, y_reg = 0 throughout: rate -theta_hat
    assert np.array_equal(res.psi, np.ones((1001, 1)))
    assert not res.y_reg.any()


def _rotation_plant():
    return SystemSpec(
        n=2, m=1, q=1,
        A=lambda t: np.tile([[0.0, 1.0], [-1.0, 0.0]], (len(t), 1, 1)),
        B=lambda t: np.zeros(t.shape + (2, 1)),
        C=lambda t: np.tile([[1.0, 0.0]], (len(t), 1, 1)),
        u=lambda t: np.zeros(t.shape + (1,)),
        x0=np.zeros(2),
    )


@pytest.mark.parametrize("gamma", [10.0, 100.0])
def test_rotating_regressor_slow_rate_closed_form(gamma):
    # psi = (cos t, sin t) turns at unit rate; in the frame that turns with
    # it the error obeys z' = [[-gamma, 1], [-1, 0]] z, so after the fast
    # mode dies |theta_err| decays at the slow eigenvalue exactly.
    scen = NamedScenario(
        id="rotation", system=_rotation_plant(), delay=DelaySpec(),
        gamma=gamma, estimator="gradient", horizon=30.0, step=1e-3,
        xi0=np.zeros(2), theta_hat0=np.array([0.0, 1.0]),
    )
    res = simulate(scen)
    slow = (-gamma + math.sqrt(gamma * gamma - 4.0)) / 2.0
    mask = res.t >= 5.0
    log_err = np.log(np.linalg.norm(res.theta_error[mask], axis=1))
    slope = np.polyfit(res.t[mask], log_err, 1)[0]
    assert abs(slope - slow) <= 1e-6 * abs(slow)
    if gamma == 100.0:
        # even this ideal regressor leaves |theta_err(30)| near e^{-0.3}
        assert np.linalg.norm(res.theta_error[-1]) > 0.5


def test_recorded_regression_initial_regressor():
    # at t = 0, Phi = I: psi = C^T and y_reg = C (xi0 - x0) = -x0[0]
    res = simulate(builtin_scenario("c1", 1.0, horizon=0.1))
    assert np.array_equal(res.psi[0], np.array([1.0, 0.0]))
    assert res.y_reg[0] == -1.0


def test_recorded_regression_zero_parameter():
    # xi(0) = x(0) makes the regressand vanish along the whole run
    res = simulate(builtin_scenario("c2", 1.0, horizon=4.0, xi0=np.array([1.0, -1.0])))
    assert not res.theta.any()
    assert np.abs(res.y_reg).max() <= 1e-12


def test_recorded_regression_identity_along_c2_run():
    res = simulate(builtin_scenario("c2", 10.0, horizon=5.0))
    assert np.abs(res.y_reg - res.psi @ res.theta).max() <= 1e-10
