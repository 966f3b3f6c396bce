"""Fixed-step integration of the plant, observer copy, and estimator.

A run is three passes over the uniform grid t_k = k h:

1. plant: Z = [x | xi | Phi] obeys Z' = A(t) Z + [Bu Bu 0], which never
   sees the estimator.  With A, B and u called once on all nodes and
   midpoints, each RK4 step's affine map Z_{k+1} = P_k Z_k + r_k [1 1 0]
   is built with array operations, and a loop applies the maps; the pass
   keeps node values and node derivatives;
2. regression: psi = (C(phi) Phi(phi))^T and y_reg = C(phi) (xi - x)(phi)
   at every stage time (for DREM also at each stage time minus each lag,
   zero before t = 0; at gamma = 0 at the nodes alone), each looked up in
   the cubic Hermite interpolant of the plant nodes, which keeps the
   estimator fourth-order;
3. estimator: theta_hat alone, RK4 on the gradient law
   gamma psi (y_reg - psi . theta_hat) or the DREM law
   gamma Delta (Y_mixed - Delta theta_hat), each called on the plain
   arrays of the regression build at the stage times.

x, xi and the columns of Phi share one linear recursion, so
xi - x = Phi (xi(0) - x(0)) holds at the nodes to rounding for any step;
the lookup is linear in the node data, so y_reg = psi . theta holds too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# extend_regressor is not called here (lagged rows come from the Hermite
# lookup); perfbench/tracer.py wraps it on this module with the other laws.
from .drem import drem_update, extend_regressor, mix  # noqa: F401
from .history import TrajectoryHistory
from .model import NamedScenario, at_times
from .observer import gradient_update

STATE_NORM_LIMIT = 1e12
# The plant pass and the Hermite lookups work this many steps or times at
# once, which bounds the size of their temporaries and with it a run's
# peak memory.
_BLOCK = 256


class DivergenceError(RuntimeError):
    """Raised when any integrated quantity exceeds the norm guard or leaves
    the finite floats."""

    def __init__(self, t: float, message: str):
        super().__init__(message)
        self.t = t


def _regression_lags(scenario: NamedScenario) -> tuple:
    """Lags at which the run needs the regression: 0, then DREM's extension."""
    if scenario.estimator != "drem" or scenario.gamma == 0.0:
        return (0.0,)
    return (0.0,) + scenario.drem_delays


def _rk4(y0, t, rate):
    """Classical RK4 over the nodes ``t``; ``rate(j, y)`` is the derivative
    at stage time index j (node k is 2k, the midpoint after it 2k + 1).
    Returns the node values."""
    Y = np.empty((len(t),) + np.shape(y0))
    y = Y[0] = y0
    h = t[1] - t[0]
    half, c = 0.5 * h, h / 6.0
    for k in range(len(t) - 1):
        mid = 2 * k + 1
        k1 = rate(2 * k, y)
        k2 = rate(mid, y + half * k1)
        k3 = rate(mid, y + half * k2)
        k4 = rate(mid + 1, y + h * k3)
        y = Y[k + 1] = y + c * (k1 + 2.0 * (k2 + k3) + k4)
    return Y


def _plant_pass(sysm, xi0, t, tau):
    """RK4 on Z = [x | xi | Phi] over the nodes ``t``, with A and B u taken
    once at each time of ``tau`` (nodes and midpoints).  Returns the node
    values and node derivatives.

    With a bottom row [1 1 0 ... 0] carried under Z, Z' = A Z + [Bu Bu 0]
    becomes the linear ODE Z' = G Z, G = [[A, Bu], [0, 0]].  An RK4 step of
    a linear ODE multiplies by what its stage formulas make of the
    identity, here [[P_k, r_k], [0, 1]]; these are built a block of steps
    at a time with array operations, and a loop applies them.
    """
    n, m = sysm.n, sysm.m
    G = np.zeros((len(tau), n + 1, n + 1))
    G[:, :n, :n] = at_times(sysm.A, tau, (n, n), "A(t)")
    G[:, :n, n] = np.einsum("kij,kj->ki", at_times(sysm.B, tau, (n, m), "B(t)"),
                            at_times(sysm.u, tau, (m,), "u(t)"))
    h = t[1] - t[0]
    eye = np.eye(n + 1)
    Z = np.zeros((len(t), n + 1, n + 2))
    z = Z[0]
    z[:n] = np.column_stack([sysm.x0, xi0, np.eye(n)])
    z[n, :2] = 1.0
    for lo in range(0, len(t) - 1, _BLOCK):
        g = G[2 * lo:2 * (lo + _BLOCK) + 1]
        G0, Gm, G1 = g[:-1:2], g[1::2], g[2::2]
        K2 = Gm @ (eye + 0.5 * h * G0)
        K3 = Gm @ (eye + 0.5 * h * K2)
        K4 = G1 @ (eye + h * K3)
        for k, p in enumerate(eye + (h / 6.0) * (G0 + 2.0 * (K2 + K3) + K4), lo + 1):
            z = Z[k] = p @ z
    # the copy drops the bottom row, which the run would otherwise keep
    return Z[:, :n].copy(), G[::2, :n] @ Z


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
    leaves the norm guard (or the finite floats).
    """
    sysm = scenario.system
    lags = _regression_lags(scenario)
    h = scenario.step
    t = h * np.arange(scenario.steps + 1)
    tau = 0.5 * h * np.arange(2 * scenario.steps + 1)

    # A run that diverges carries on in inf and nan without warnings; the
    # norm guard below then names its first node past the limit.
    with np.errstate(over="ignore", invalid="ignore"):
        Z, dZ = _plant_pass(sysm, scenario.xi0, t, tau)
        # open loop nothing reads the midpoints: build the regression at the
        # nodes alone (tau[2k] and t[k] are the same doubles)
        gamma = scenario.gamma
        M, Y = _regression(scenario, t, Z, dZ, t if gamma == 0.0 else tau, lags)
        psi, y_reg = M[:, 0], Y[:, 0]
        if gamma == 0.0:
            theta_hat = np.tile(scenario.theta_hat0, (len(t), 1))
        elif scenario.estimator == "gradient":
            theta_hat = _rk4(scenario.theta_hat0, t,
                             lambda j, th: gradient_update(psi[j], y_reg[j], th, gamma))
        else:
            Delta, Y_mixed = mix(M, Y)
            theta_hat = _rk4(scenario.theta_hat0, t,
                             lambda j, th: drem_update(Delta[j], Y_mixed[j], th, gamma))

    worst = np.maximum(np.abs(Z).max(axis=(1, 2)), np.abs(theta_hat).max(axis=1))
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
        psi=psi if gamma == 0.0 else psi[::2].copy(),
        y_reg=y_reg if gamma == 0.0 else y_reg[::2].copy(),
    )
