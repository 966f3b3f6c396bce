"""Regressor extension, adjugate mixing, and the decoupled update law."""

import math
from dataclasses import replace

import numpy as np
import pytest

import gpebo.integrate as integrate
from gpebo import (
    DelaySpec,
    NamedScenario,
    SystemSpec,
    TrajectoryHistory,
    adjugate,
    builtin_scenario,
    mix,
)
from gpebo.integrate import drem_update, extend_regressor


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
    # a DREM scenario built without drem_delays gets the n - 1 lags 0.5 i
    for n, lags in ((1, ()), (2, (0.5,)), (3, (0.5, 1.0))):
        system = SystemSpec(
            n=n, m=1, q=1,
            A=lambda t, n=n: np.zeros(t.shape + (n, n)),
            B=lambda t, n=n: np.zeros(t.shape + (n, 1)),
            C=lambda t, n=n: np.zeros(t.shape + (1, n)),
            u=lambda t: np.zeros(t.shape + (1,)),
            x0=np.zeros(n),
        )
        scenario = NamedScenario(id="drem", system=system, delay=DelaySpec(), gamma=1.0,
                                 estimator="drem", horizon=1.0, step=1e-3, xi0=np.zeros(n),
                                 theta_hat0=np.zeros(n))
        assert scenario.drem_delays == lags
    # two lags out of order on the 3-state plant; n = 2 takes one lag only
    with pytest.raises(ValueError, match=r"^drem_delays must be strictly increasing, "
                                         r"got \(1\.0, 0\.5\)$"):
        replace(scenario, drem_delays=(1.0, 0.5))


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
    with pytest.raises(ValueError, match="^t must be finite"):
        extend_regressor(np.nan, lags, hp, hy)
    # a psi sample must be a vector and a y sample a scalar, before any lookup
    times = np.linspace(0.0, 1.0, 5)
    for psi, y, message in (
        (hp, TrajectoryHistory.from_grid(times, np.ones((5, 1))), r"hist_y samples must be "
         r"scalars, got shape \(1,\)"),
        (TrajectoryHistory.from_grid(times, np.ones(5)), hy, r"hist_psi samples must be "
         r"vectors, got shape \(\)"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            extend_regressor(1.0, lags, psi, y)


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


def test_mix_rejects_bad_shapes():
    with pytest.raises(ValueError, match="square"):
        mix(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError, match="Y_stack"):
        mix(np.eye(2), np.zeros(3))
    # complex, string or ragged arguments are refused by name, not read
    # with their imaginary parts dropped
    for M, Y, name, got in ((np.eye(2) * (1 + 1j), [1.0, 2.0], "M", "dtype complex128"),
                            (np.eye(2), [1.0, 2.0 + 0j], "Y_stack", "dtype complex128"),
                            ([[1.0, 0.0], [0.0]], [1.0, 2.0], "M", "a ragged sequence"),
                            (np.eye(2), ["1", "2"], "Y_stack", "dtype <U1")):
        with pytest.raises(ValueError, match=f"^{name} must be real numbers, got {got}$"):
            mix(M, Y)


def test_mix_stack_matches_each_matrix():
    rng = np.random.default_rng(41)
    for n in range(1, 7):
        M = rng.uniform(-2.0, 2.0, size=(5, n, n))
        M[1, -1] = M[1, 0]  # singular matrices in the stack
        M[2, :2] = 0.0
        Y = rng.uniform(-2.0, 2.0, size=(5, n))
        Delta, Y_mixed = mix(M, Y)
        for k in range(5):
            one_Delta, one_Y = mix(M[k], Y[k])
            # the stacked matrix product may round differently in the last bit
            assert Delta[k] == pytest.approx(one_Delta, rel=1e-14, abs=1e-14)
            assert np.abs(Y_mixed[k] - one_Y).max() <= 1e-14 * (1.0 + np.abs(one_Y).max())


def test_mix_of_size_two_is_the_adjugate_product_bit_for_bit():
    # size 2 forms Delta and adj(M) Y from M's entries, with no stacked
    # adj(M): the same sums, rounded the same, as the first-row expansion
    # and the product with adjugate(M), singular members included
    rng = np.random.default_rng(43)
    M = rng.uniform(-2.0, 2.0, size=(3, 700, 2, 2))
    M[0, :5] = 0.0
    M[1, :5, 1] = M[1, :5, 0]
    Y = rng.uniform(-2.0, 2.0, size=(3, 700, 2))
    Delta, Y_mixed = mix(M, Y)
    adj = adjugate(M)
    assert np.array_equal(Delta, (M[..., 0, :] * adj[..., :, 0]).sum(axis=-1))
    assert np.array_equal(Y_mixed, adj[..., 0] * Y[..., :1] + adj[..., 1] * Y[..., 1:])
    assert np.all(Delta[:2, :5] == 0.0)


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
    # one batched call on a stack holding regular members, members with one
    # zero row and, from n = 2, members with two zero rows, whose every
    # minor keeps a zero row so that adj(M) is exactly 0
    for n in range(1, 7):
        S = rng.uniform(-1.0, 1.0, size=(3, 4, n, n))
        S[1, :, rng.integers(n)] = 0.0
        if n > 1:
            S[2, :, :2] = 0.0
        got = adjugate(S)
        assert got.shape == S.shape
        for k in np.ndindex(S.shape[:2]):
            ref = np.array(_cofactor_adjugate(S[k].tolist()))
            assert np.abs(got[k] - ref).max() <= 1e-13
        if n > 1:
            assert np.all(got[2] == 0.0)


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

    # a rank-deficient 4x4 takes the same cofactor rule as a regular one
    S = rng.uniform(-1.0, 1.0, size=(4, 4))
    S[3] = S[0]
    got = adjugate(S)
    assert np.abs(got @ S).max() <= 1e-9
    assert np.all(np.isfinite(got))

    # a stack longer than two blocks gives each member's own adjugate
    T = rng.uniform(-1.0, 1.0, size=(2 * integrate._ADJ_BLOCK + 3, 4, 4))
    # singular members either side of a block edge
    T[integrate._ADJ_BLOCK - 1:integrate._ADJ_BLOCK + 1, 0] = 0.0
    assert np.array_equal(adjugate(T), np.array([adjugate(m) for m in T]))


def test_adjugate_rejects_non_square():
    with pytest.raises(ValueError):
        adjugate(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="nonempty square"):
        adjugate(np.zeros((0, 0)))
    for M, got in ((np.eye(3) * 1j, "dtype complex128"), (np.full((3, 3), "1"), "dtype <U1"),
                   ([[1.0, 2.0], [3.0]], "a ragged sequence")):
        with pytest.raises(ValueError, match=f"^M must be real numbers, got {got}$"):
            adjugate(M)


def test_drem_update_zero_delta():
    assert np.array_equal(drem_update(0.0, np.array([1.0, 2.0]), np.array([5.0, 6.0]), 3.0),
                          np.zeros(2))


def test_drem_update_zero_residual():
    theta = np.array([2.0, -3.0])
    assert np.abs(drem_update(1.5, 1.5 * theta, theta, 10.0)).max() <= 1e-15


def test_drem_update_requires_positive_gain():
    for gamma in (0.0, "1"):
        with pytest.raises(ValueError, match="^gamma"):
            drem_update(1.0, np.zeros(1), np.zeros(1), gamma)


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
