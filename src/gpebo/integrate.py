"""Fixed-step integration of the plant, observer copy, and estimator.

A run is three passes over the uniform grid t_k = k h:

1. plant: Z = [x | xi | Phi] obeys Z' = A(t) Z + [Bu Bu 0], which never
   sees the estimator.  With A, B and u called once on all nodes and
   midpoints, each RK4 step's affine map Z_{k+1} = P_k Z_k + r_k [1 1 0]
   is built with array operations, and a blocked prefix-product scan
   applies the maps; the pass keeps node values and node derivatives;
2. regression: psi = (C(phi) Phi(phi))^T and y_reg = C(phi) (xi - x)(phi)
   at every stage time (for DREM also at each stage time minus each lag,
   zero before t = 0; at gamma = 0 at the nodes alone), each looked up in
   the cubic Hermite interpolant of the plant nodes, which keeps the
   estimator fourth-order;
3. estimator: theta_hat alone.  The gradient law
   gamma psi (y_reg - psi . theta_hat) and the DREM law
   gamma Delta (Y_mixed - Delta theta_hat) are both affine in theta_hat,
   so their RK4 steps are affine maps too, built from the regression
   arrays and applied by the same scan as the plant's.  A gain and step
   that put a stage past RK4's stability limit are refused first.

x, xi and the columns of Phi share one linear recursion, so
xi - x = Phi (xi(0) - x(0)) holds at the nodes to rounding for any step;
the lookup is linear in the node data, so y_reg = psi . theta holds too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Only mix is called here, the estimator pass scanning the laws' affine form;
# perfbench/tracer.py wraps all four on this module by name, so they stay.
from .drem import drem_update, extend_regressor, mix  # noqa: F401
from .history import TrajectoryHistory
from .model import NamedScenario, at_times
from .observer import gradient_update  # noqa: F401

STATE_NORM_LIMIT = 1e12
# Largest h lambda_max(M) an estimator stage may have.  RK4's stability
# interval on the negative real axis ends at -2.7853 (Hairer & Wanner,
# Solving ODEs II, IV.2); on c1-c3 the first per-step increase of
# |theta_hat - theta| shows at 2.80 (DREM) and 2.82 (gradient).
STIFFNESS_LIMIT = 2.785
# The scans take this many step maps at once (8 doublings at 256), and the
# Hermite lookups this many times; the block bounds the size of their
# temporaries and with it a run's peak memory.
_BLOCK = 256


class DivergenceError(RuntimeError):
    """Raised when any integrated quantity exceeds the norm guard or leaves
    the finite floats."""

    def __init__(self, t: float, message: str):
        super().__init__(message)
        self.t = t


class StiffnessError(DivergenceError):
    """Raised before the estimator pass when a stage's h lambda_max(M)
    passes ``STIFFNESS_LIMIT``, past which its RK4 step can grow the error
    the law itself never grows; ``t`` is the first such stage time.  A
    plant that leaves the norm guard is a DivergenceError instead: its
    growing psi makes any gain stiff, and no step would do."""


def _regression_lags(scenario: NamedScenario) -> tuple:
    """Lags at which the run needs the regression: 0, then DREM's extension."""
    if scenario.estimator != "drem" or scenario.gamma == 0.0:
        return (0.0,)
    return (0.0,) + scenario.drem_delays


def _affine_scan(G, z0, h):
    """RK4 on z' = G(t) z with step ``h``, G given at every stage time (node
    k is 2k, the midpoint after it 2k + 1); returns the node values.

    A step of a linear ODE multiplies by what its stage formulas make of
    the identity; these maps are built a block of steps at a time with
    array operations.  Within a block, recursive doubling (Blelloch 1990)
    turns them into prefix products in log2 of its length batched matmuls,
    and one batched product applies them to the node before the block.
    This associates differently from stepping one map at a time, so the
    nodes match stagewise RK4 to rounding, not bit for bit.
    """
    eye = np.eye(len(z0))
    Z = np.empty((len(G) // 2 + 1,) + z0.shape)
    z = Z[0] = z0
    for lo in range(0, len(Z) - 1, _BLOCK):
        g = G[2 * lo:2 * (lo + _BLOCK) + 1]
        G0, Gm, G1 = g[:-1:2], g[1::2], g[2::2]
        K2 = Gm @ (eye + 0.5 * h * G0)
        K3 = Gm @ (eye + 0.5 * h * K2)
        K4 = G1 @ (eye + h * K3)
        Q = eye + (h / 6.0) * (G0 + 2.0 * (K2 + K3) + K4)
        # after the pass at d, Q[j] = P_{lo+j} ... P_{lo+max(0, j-2d+1)};
        # the right-hand side is a temporary, so the update may be in place
        d = 1
        while d < len(Q):
            Q[d:] = Q[d:] @ Q[:-d]
            d *= 2
        Z[lo + 1:lo + 1 + len(Q)] = Q @ z
        z = Z[lo + len(Q)]
    return Z


def _plant_pass(sysm, xi0, tau, h):
    """RK4 on Z = [x | xi | Phi] with A and B u taken once at each stage
    time of ``tau``; returns the node values and node derivatives.  With a
    bottom row [1 1 0 ... 0] under Z, Z' = A Z + [Bu Bu 0] is the linear
    ODE Z' = G Z, G = [[A, Bu], [0, 0]]."""
    n, m = sysm.n, sysm.m
    G = np.zeros((len(tau), n + 1, n + 1))
    G[:, :n, :n] = at_times(sysm.A, tau, (n, n), "A(t)")
    G[:, :n, n] = np.einsum("kij,kj->ki", at_times(sysm.B, tau, (n, m), "B(t)"),
                            at_times(sysm.u, tau, (m,), "u(t)"))
    z0 = np.vstack([np.column_stack([sysm.x0, xi0, np.eye(n)]), np.r_[1.0, 1.0, np.zeros(n)]])
    Z = _affine_scan(G, z0, h)
    # the copy drops the bottom row, which the run would otherwise keep
    return Z[:, :n].copy(), G[::2, :n] @ Z


def _estimator_pass(scenario, M, Y, tau, refuse_stiff):
    """RK4 on theta_hat' = v - M theta_hat at the stage times ``tau``, the
    form of both laws: M = gamma psi psi^T and v = gamma psi y_reg for the
    gradient law, M = gamma Delta^2 I and v = gamma Delta Y_mixed for DREM.
    With a unit row under theta_hat this is z' = [[-M, v], [0, 0]] z."""
    n, gamma = scenario.system.n, scenario.gamma
    G = np.zeros((len(tau), n + 1, n + 1))
    if scenario.estimator == "gradient":
        P = M[:, 0].reshape(len(tau), n, -1)  # psi as (n, q), y_reg as (q, 1)
        np.matmul(P, P.transpose(0, 2, 1), out=G[:, :n, :n])
        G[:, :n, n] = (P @ Y[:, 0].reshape(len(tau), -1, 1))[:, :, 0]
    else:
        Delta, Y_mixed = mix(M, Y)
        G[:, range(n), range(n)] = (Delta * Delta)[:, None]
        G[:, :n, n] = Delta[:, None] * Y_mixed
    G[:, :n, :n] *= -gamma
    G[:, :n, n] *= gamma
    if refuse_stiff:
        _refuse_stiff_stages(scenario, G, tau)
    z0 = np.append(scenario.theta_hat0, 1.0)[:, None]
    return _affine_scan(G, z0, scenario.step)[:, :n, 0].copy()


def _refuse_stiff_stages(scenario, G, tau):
    """Raise StiffnessError if h lambda_max(M), M = -G[:, :n, :n], passes
    STIFFNESS_LIMIT at a stage time of ``tau``.  DREM's M is a multiple of
    I and the one-output gradient law's has rank one, so a diagonal entry
    or the trace gives lambda_max; q outputs need eigvalsh."""
    n, h = scenario.system.n, scenario.step
    if scenario.estimator == "drem":
        lam = -G[:, 0, 0]
    elif scenario.system.q == 1:
        lam = -np.einsum("kii->k", G[:, :n, :n])
    else:
        lam = -np.linalg.eigvalsh(G[:, :n, :n])[:, 0]
    stiff = np.flatnonzero(h * lam > STIFFNESS_LIMIT)
    if stiff.size:
        t, top = float(tau[stiff[0]]), np.nanmax(lam)
        raise StiffnessError(t, (
            f"gamma {scenario.gamma:g} with step {h:g} is past the estimator's RK4 stability "
            f"limit: h lambda_max(M) passes {STIFFNESS_LIMIT:g} at t={t:.10g} and reaches "
            f"{h * top:.4g}; the largest safe step for this gamma is {STIFFNESS_LIMIT / top:.4g}"))


def _hermite(t, Z, dZ, s):
    """Cubic Hermite interpolant of the node data at the times ``s``.

    The local coordinate is taken over each interval's own length, so a
    time on a node returns that node's value exactly.
    """
    i = np.clip(np.searchsorted(t, s, side="right") - 1, 0, len(t) - 2)
    dt = t[i + 1] - t[i]
    u = ((s - t[i]) / dt)[:, None, None]
    dt = dt[:, None, None]
    u2 = u * u
    u3 = u2 * u
    return ((2.0 * u3 - 3.0 * u2 + 1.0) * Z[i] + (u3 - 2.0 * u2 + u) * dt * dZ[i]
            + (3.0 * u2 - 2.0 * u3) * Z[i + 1] + (u3 - u2) * dt * dZ[i + 1])


def _regression(scenario, t, Z, dZ, times, lags):
    """psi and y_reg at ``times - d`` for each lag d, stacked on axis 1.

    Each value is looked up at the measurement time phi(times - d); rows
    whose lagged time precedes t = 0 are zero.
    """
    psis, ys = [], []
    for d in lags:
        s = times - d
        phi = at_times(scenario.delay, np.maximum(s, 0.0), (), "phi(t)")
        Zd = np.concatenate([_hermite(t, Z, dZ, phi[lo:lo + _BLOCK])
                             for lo in range(0, len(phi), _BLOCK)])
        C = at_times(scenario.system.C, phi, (scenario.system.q, scenario.system.n), "C(t)")
        psi = (C @ Zd[:, :, 2:]).transpose(0, 2, 1)
        y_reg = np.einsum("kqn,kn->kq", C, Zd[:, :, 1] - Zd[:, :, 0])
        if C.shape[1] == 1:
            psi, y_reg = psi[:, :, 0], y_reg[:, 0]
        psi[s < 0.0] = 0.0
        y_reg[s < 0.0] = 0.0
        psis.append(psi)
        ys.append(y_reg)
    return np.stack(psis, axis=1), np.stack(ys, axis=1)


@dataclass
class SimulationResult:
    """Grid trajectories from one run plus derived observer quantities.

    Arrays are indexed by grid node on axis 0.  ``theta`` is the true
    initial mismatch xi(0) - x(0) the estimator is converging to.  ``psi``
    and ``y_reg`` hold the delayed regression y_reg = psi . theta the
    estimator saw at each node.
    """

    scenario: NamedScenario
    t: np.ndarray
    x: np.ndarray
    xi: np.ndarray
    Phi: np.ndarray
    theta_hat: np.ndarray
    theta: np.ndarray
    psi: np.ndarray
    y_reg: np.ndarray

    @property
    def xhat(self) -> np.ndarray:
        """State estimate xi - Phi theta_hat at every node."""
        return self.xi - np.einsum("kij,kj->ki", self.Phi, self.theta_hat)

    @property
    def estimation_error(self) -> np.ndarray:
        """x - xhat at every node."""
        return self.x - self.xhat

    @property
    def theta_error(self) -> np.ndarray:
        """theta_hat - theta at every node."""
        return self.theta_hat - self.theta

    def phi_history(self) -> TrajectoryHistory:
        """Phi on the run's grid, for the excitation and Liouville checks."""
        return TrajectoryHistory.from_grid(self.t, self.Phi)


def simulate(scenario: NamedScenario) -> SimulationResult:
    """Run one scenario over its horizon and return the grid trajectories.

    The grid is t_k = k h with the horizon rounded to the nearest whole
    number of steps.  A zero scenario gain freezes theta_hat, which turns
    the run into an open-loop diagnostic of the observer copy.  A
    DivergenceError names the first node where x, xi, Phi or theta_hat
    leaves the norm guard (or the finite floats).  If the plant stays
    inside it, a StiffnessError refuses a gain too large for the step
    before the estimator runs.
    """
    sysm = scenario.system
    lags = _regression_lags(scenario)
    h = scenario.step
    t = h * np.arange(scenario.steps + 1)
    tau = 0.5 * h * np.arange(2 * scenario.steps + 1)

    # A run that diverges carries on in inf and nan without warnings; the
    # norm guard below then names its first node past the limit.
    with np.errstate(over="ignore", invalid="ignore"):
        Z, dZ = _plant_pass(sysm, scenario.xi0, tau, h)
        plant = np.abs(Z).max(axis=(1, 2))
        # open loop nothing reads the midpoints: build the regression at the
        # nodes alone (tau[2k] and t[k] are the same doubles)
        gamma = scenario.gamma
        M, Y = _regression(scenario, t, Z, dZ, t if gamma == 0.0 else tau, lags)
        if gamma == 0.0:
            theta_hat = np.tile(scenario.theta_hat0, (len(t), 1))
        else:
            refuse_stiff = bool((plant <= STATE_NORM_LIMIT).all())
            theta_hat = _estimator_pass(scenario, M, Y, tau, refuse_stiff)

    worst = np.maximum(plant, np.abs(theta_hat).max(axis=1))
    over = np.flatnonzero(~(worst <= STATE_NORM_LIMIT))
    if over.size:
        tk, m = float(t[over[0]]), float(worst[over[0]])
        raise DivergenceError(tk, f"state norm {m!r} exceeds {STATE_NORM_LIMIT:g} at t={tk}")

    return SimulationResult(
        scenario=scenario,
        t=t,
        x=Z[:, :, 0],
        xi=Z[:, :, 1],
        Phi=Z[:, :, 2:],
        theta_hat=theta_hat,
        theta=scenario.xi0 - sysm.x0,
        psi=M[:, 0] if gamma == 0.0 else M[::2, 0].copy(),
        y_reg=Y[:, 0] if gamma == 0.0 else Y[::2, 0].copy(),
    )
