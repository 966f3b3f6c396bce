"""Regression construction, gradient update law, and state reconstruction."""

import math

import numpy as np
import pytest

from gpebo import (
    DelaySpec,
    GainSpec,
    NamedScenario,
    RegressionSample,
    SystemSpec,
    builtin_scenario,
    gradient_update,
    reconstruct,
    simulate,
)


def test_gain_spec_scaled():
    g = GainSpec.scaled(100.0, 2)
    assert np.array_equal(g.Gamma, 100.0 * np.eye(2))


def test_gain_spec_rejects_bad_matrices():
    with pytest.raises(ValueError):
        GainSpec.scaled(0.0, 2)
    with pytest.raises(ValueError):
        GainSpec(Gamma=np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        GainSpec(Gamma=np.array([[1.0, 0.0], [0.0, -1.0]]))  # indefinite
    with pytest.raises(ValueError):
        GainSpec(Gamma=np.ones(3))


def test_reconstruct_exact_parameter():
    rng = np.random.default_rng(3)
    xi = rng.standard_normal(2)
    Phi = rng.standard_normal((2, 2))
    theta = rng.standard_normal(2)
    x = xi - Phi @ theta
    assert np.allclose(reconstruct(xi, Phi, theta), x, atol=0)


def test_reconstruct_zero_transition_matrix():
    xi = np.array([2.0, 3.0])
    assert np.array_equal(reconstruct(xi, np.zeros((2, 2)), np.array([9.0, -9.0])), xi)


def test_reconstruct_hand_case():
    got = reconstruct(np.zeros(2), np.eye(2), np.array([1.0, -1.0]))
    assert np.array_equal(got, np.array([-1.0, 1.0]))


def test_gradient_update_zero_regressor():
    s = RegressionSample(t=0.0, psi=np.zeros(2), y_reg=0.0)
    rate = gradient_update(s, np.array([5.0, -2.0]), GainSpec.scaled(100.0, 2))
    assert np.array_equal(rate, np.zeros(2))


def test_gradient_update_zero_residual():
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(2)
    theta = rng.standard_normal(2)
    s = RegressionSample(t=0.0, psi=psi, y_reg=float(psi @ theta))
    rate = gradient_update(s, theta, GainSpec.scaled(10.0, 2))
    assert np.abs(rate).max() <= 1e-15


def test_gradient_update_scalar_rate():
    # psi = 1, y = 0, theta_hat = 1, gamma = 1  ->  rate -1
    s = RegressionSample(t=0.0, psi=np.array([1.0]), y_reg=0.0)
    rate = gradient_update(s, np.array([1.0]), GainSpec.scaled(1.0, 1))
    assert rate[0] == -1.0


def _scalar_frozen_plant():
    return SystemSpec(
        n=1, m=1, q=1,
        A=lambda t: np.zeros((1, 1)),
        B=lambda t: np.zeros((1, 1)),
        C=lambda t: np.array([[1.0]]),
        u=lambda t: np.zeros(1),
        x0=np.zeros(1),
    )


def test_scalar_estimate_decays_exponentially():
    # constant unit regressor: theta_hat(t) = e^{-t} toward theta = 0
    scen = NamedScenario(
        id="scalar", system=_scalar_frozen_plant(), delay=DelaySpec.identity(),
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
        A=lambda t: np.array([[0.0, 1.0], [-1.0, 0.0]]),
        B=lambda t: np.zeros((2, 1)),
        C=lambda t: np.array([[1.0, 0.0]]),
        u=lambda t: np.zeros(1),
        x0=np.zeros(2),
    )


@pytest.mark.parametrize("gamma", [10.0, 100.0])
def test_rotating_regressor_slow_rate_closed_form(gamma):
    # psi = (cos t, sin t) turns at unit rate; in the frame that turns with
    # it the error obeys z' = [[-gamma, 1], [-1, 0]] z, so after the fast
    # mode dies |theta_err| decays at the slow eigenvalue exactly.
    scen = NamedScenario(
        id="rotation", system=_rotation_plant(), delay=DelaySpec.identity(),
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
