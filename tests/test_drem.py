"""Regressor extension, adjugate mixing, and the decoupled update law."""

import math

import numpy as np
import pytest

from gpebo import (
    TrajectoryHistory,
    adjugate,
    builtin_scenario,
    default_ext_delays,
    drem_update,
    extend_regressor,
    mix,
)


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


def _cofactor_adjugate(M):
    """Brute-force reference: adj(M)[j][i] = (-1)^(i+j) det(minor_ij)."""
    n = len(M)
    if n == 1:
        return [[1.0]]
    adj = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(M) if k != i]
            adj[j][i] = (-1.0) ** (i + j) * _laplace_det(minor)
    return adj


def test_config_validation():
    # the extension lags are checked where the scenario is built
    builtin_scenario("c1", 1.0, estimator="drem", drem_delays=(0.5,))
    with pytest.raises(ValueError, match="drem_delays"):
        builtin_scenario("c1", 1.0, estimator="drem", drem_delays=(-0.5,))
    with pytest.raises(ValueError, match="drem_delays"):
        builtin_scenario("c1", 1.0, estimator="drem", drem_delays=(0.5, 0.5))


def test_default_ext_delays():
    assert default_ext_delays(1) == ()
    assert default_ext_delays(2) == (0.5,)
    assert default_ext_delays(3) == (0.5, 1.0)


def _ramp_history(tmax=2.0, step=0.5):
    hp = TrajectoryHistory()
    hy = TrajectoryHistory()
    t = 0.0
    while t <= tmax + 1e-12:
        hp.append(t, np.array([1.0, t]))
        hy.append(t, np.float64(0.0))
        t += step
    return hp, hy


def test_extend_identity_for_scalar():
    hp = TrajectoryHistory()
    hy = TrajectoryHistory()
    hp.append(0.0, np.array([3.0]))
    hy.append(0.0, np.float64(7.0))
    M, Y = extend_regressor(0.0, (), hp, hy)
    assert np.array_equal(M, np.array([[3.0]]))
    assert np.array_equal(Y, np.array([7.0]))


def test_extend_zero_fills_unfilled_lags():
    hp, hy = _ramp_history()
    lags = (1.0,)
    M, Y = extend_regressor(0.5, lags, hp, hy)
    assert np.array_equal(M[1], np.zeros(2))
    assert Y[1] == 0.0
    Delta, Y_mixed = mix(M, Y)
    assert Delta == 0.0
    assert np.array_equal(drem_update(Delta, Y_mixed, np.array([4.0, 5.0]), 10.0), np.zeros(2))


def test_extend_hand_case():
    hp, hy = _ramp_history()
    lags = (1.0,)
    M, Y = extend_regressor(2.0, lags, hp, hy)
    assert np.array_equal(M, np.array([[1.0, 2.0], [1.0, 1.0]]))
    assert mix(M, Y)[0] == -1.0


def test_extend_rejects_time_past_history():
    hp, hy = _ramp_history(tmax=1.0)
    lags = (0.75,)
    M, Y = extend_regressor(1.0, lags, hp, hy)
    assert np.array_equal(M, np.array([[1.0, 1.0], [1.0, 0.25]]))
    with pytest.raises(ValueError):
        extend_regressor(1.25, lags, hp, hy)


def test_mix_identity():
    Delta, Y_mixed = mix(np.eye(2), np.array([3.0, -4.0]))
    assert Delta == 1.0
    assert np.array_equal(Y_mixed, np.array([3.0, -4.0]))


def test_mix_diagonal_hand_case():
    M = np.array([[2.0, 0.0], [0.0, 3.0]])
    Delta, Y_mixed = mix(M, np.array([2.0, 3.0]))  # Y = M theta with theta = [1, 1]
    assert Delta == 6.0
    assert np.array_equal(Y_mixed, np.array([6.0, 6.0]))


def test_mix_singular():
    Delta, Y_mixed = mix(np.ones((2, 2)), np.array([1.0, 2.0]))
    assert Delta == 0.0
    assert np.all(np.isfinite(Y_mixed))


def test_mix_stack_matches_each_matrix():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 4):
        M = rng.uniform(-2.0, 2.0, size=(5, n, n))
        M[1, -1] = M[1, 0]  # one singular matrix in the stack
        Y = rng.uniform(-2.0, 2.0, size=(5, n))
        Delta, Y_mixed = mix(M, Y)
        for k in range(5):
            one_Delta, one_Y = mix(M[k], Y[k])
            # the stacked matrix product may round differently in the last bit
            assert Delta[k] == pytest.approx(one_Delta, rel=1e-14, abs=1e-14)
            assert np.abs(Y_mixed[k] - one_Y).max() <= 1e-14 * (1.0 + np.abs(one_Y).max())


def test_mix_recovers_scaled_parameter():
    rng = np.random.default_rng(23)
    for n in (2, 3):
        for _ in range(200):
            M = rng.uniform(-2.0, 2.0, size=(n, n))
            theta = rng.uniform(-2.0, 2.0, size=n)
            Delta, Y_mixed = mix(M, M @ theta)
            assert np.abs(Y_mixed - Delta * theta).max() <= 1e-12


def test_adjugate_matches_cofactor_oracle():
    rng = np.random.default_rng(29)
    for n in (2, 3):
        for _ in range(300):
            M = rng.uniform(-1.0, 1.0, size=(n, n))
            ref = np.array(_cofactor_adjugate(M.tolist()))
            got = adjugate(M)
            assert np.abs(got - ref).max() <= 1e-12
            det_ref = _laplace_det(M.tolist())
            assert np.abs(got @ M - det_ref * np.eye(n)).max() <= 1e-12


def test_adjugate_agrees_with_lu_route_on_overlap():
    rng = np.random.default_rng(31)
    kept = 0
    while kept < 100:
        M = rng.uniform(-1.0, 1.0, size=(3, 3))
        det = np.linalg.det(M)
        if abs(det) < 0.3:
            continue
        kept += 1
        lu_adj = det * np.linalg.inv(M)
        assert np.abs(adjugate(M) - lu_adj).max() <= 1e-12


def test_adjugate_larger_sizes():
    rng = np.random.default_rng(37)
    M = rng.uniform(-1.0, 1.0, size=(4, 4)) + 2.0 * np.eye(4)
    det = np.linalg.det(M)
    assert np.abs(adjugate(M) @ M - det * np.eye(4)).max() <= 1e-9

    # rank-deficient 4x4 goes through the minor-expansion fallback
    S = rng.uniform(-1.0, 1.0, size=(4, 4))
    S[3] = S[0]
    got = adjugate(S)
    assert np.abs(got @ S).max() <= 1e-9
    assert np.all(np.isfinite(got))


def test_adjugate_rejects_non_square():
    with pytest.raises(ValueError):
        adjugate(np.zeros((2, 3)))


def test_drem_update_zero_delta():
    assert np.array_equal(drem_update(0.0, np.array([1.0, 2.0]), np.array([5.0, 6.0]), 3.0),
                          np.zeros(2))


def test_drem_update_zero_residual():
    theta = np.array([2.0, -3.0])
    assert np.abs(drem_update(1.5, 1.5 * theta, theta, 10.0)).max() <= 1e-15


def test_drem_update_requires_positive_gain():
    with pytest.raises(ValueError, match="gamma"):
        drem_update(1.0, np.zeros(1), np.zeros(1), 0.0)


def test_drem_update_scalar_exponential_decay():
    # Delta = 1, theta = 0: theta_hat(t) = e^{-t}; integrate with plain RK4
    Y_mixed = np.zeros(1)
    th = np.array([1.0])
    h = 0.01
    for _ in range(100):
        k1 = drem_update(1.0, Y_mixed, th, 1.0)
        k2 = drem_update(1.0, Y_mixed, th + 0.5 * h * k1, 1.0)
        k3 = drem_update(1.0, Y_mixed, th + 0.5 * h * k2, 1.0)
        k4 = drem_update(1.0, Y_mixed, th + h * k3, 1.0)
        th = th + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert abs(th[0] - math.exp(-1.0)) <= 1e-9
