"""Fixed-step integration of the plant, observer copy, and estimator.

A run is three passes over the uniform grid t_k = k h:

1. plant: Z = [x | xi | Phi] obeys Z' = A(t) Z + [Bu Bu 0], which never
   sees the estimator.  With A, B and u called once on all nodes and
   midpoints, each RK4 step's affine map Z_{k+1} = P_k Z_k + r_k [1 1 0]
   is built with array operations, and a blocked prefix-product scan
   applies the maps; the pass keeps node values and node derivatives.  A
   step past RK4's stability region for some frozen A(t) is refused first;
2. regression: psi = (C(phi) Phi(phi))^T and y_reg = C(phi) (xi - x)(phi)
   at the times simulate picks (every stage time; for DREM also each
   stage time minus each lag, zero before t = 0; at gamma = 0 the nodes
   alone), in one delay call and one C call on all of them, each looked
   up in the cubic Hermite interpolant of the plant nodes.  The estimator
   is fourth-order where the regression is smooth inside every step, as
   on c1 and c2 with the gradient law; a kink of c3's clamp inside a step
   and a DREM lag row switching on at t = d make it lower (ROADMAP item 10);
3. estimator: theta_hat alone.  The gradient law
   gamma psi (y_reg - psi . theta_hat) and the DREM law
   gamma Delta (Y_mixed - Delta theta_hat) are both affine in theta_hat,
   so their RK4 steps are affine maps too, built from the regression
   arrays and applied by the same scan as the plant's, and a gain and step
   that grow a mode of a frozen -M are refused first by the plant's rule.

x, xi and the columns of Phi share one linear recursion, so
xi - x = Phi theta, theta = xi(0) - x(0), holds at the nodes to rounding
for any step, and the estimate is xhat = xi - Phi theta_hat; the lookup is
linear in the node data, so y_reg = psi . theta holds too.  DREM stacks
the regression at the lags into M theta = Y, and adj(M) Y = det(M) theta
gives each component of theta its own scalar regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .history import TrajectoryHistory
from .model import NamedScenario, _finite, _real, at_times

STATE_NORM_LIMIT = 1e12
# The scans take this many step maps at once (8 doublings at 256), the
# Hermite lookups this many times, and adjugate's minors, n^2 (n-1)^2 floats
# a matrix, this many matrices; the block bounds the size of their
# temporaries and with it a run's peak memory.
_BLOCK = 256


class DivergenceError(RuntimeError):
    """Raised when any integrated quantity exceeds the norm guard or leaves
    the finite floats."""

    def __init__(self, t: float, message: str):
        super().__init__(message)
        self.t = t


class StiffnessError(DivergenceError):
    """Raised when RK4's step grows a mode with Re lambda <= 0 at stage
    time ``t``, the first such: of the frozen A(t) before the plant pass,
    of the frozen -M(t) before the estimator pass, where the step would
    grow an error the law itself never grows.  A plant that leaves the norm
    guard is a DivergenceError instead: its growing psi makes any gain stiff."""


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


def _refuse_stiff(A, tau, h, who):
    """Return ``A``, or raise StiffnessError blaming ``who`` where RK4's
    step ``h`` grows a mode of A(tau) with Re lambda <= 0, to the rounding
    that puts a neutral mode on either side of 0: an alarm for the step,
    not a stability proof of an LTV system.  RK4 is stable on |z| <= 2.6,
    Re z <= 0, and h ||A||_F bounds |h lambda|, so only stages past that
    take eigenvalues; a far non-normal A pays them at each.  A non-finite
    A is left to the norm guard."""
    flagged = np.flatnonzero(np.einsum("kij,kij->k", A, A) > (2.6 / h) ** 2)
    if not flagged.size:
        return A
    flagged = flagged[np.isfinite(A[flagged]).all(axis=(1, 2))]
    z = h * np.linalg.eigvals(A[flagged])
    R = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    grows = ((z.real <= 1e-12 * np.abs(z)) & (np.abs(R) > 1.0 + 1e-12)).any(axis=1)
    if grows.any():
        t, top = float(tau[flagged[grows][0]]), np.abs(z).max() / h
        raise StiffnessError(t, f"{who} {h:g} is past RK4's stability region at t={t:.10g}, "
                             f"where it grows a mode with Re lambda <= 0; "
                             f"2.6 / max|lambda| = {2.6 / top:.4g} is a safe step")
    return A


def _plant_pass(sysm, xi0, tau, h):
    """RK4 on Z = [x | xi | Phi] with A and B u taken once at each stage
    time of ``tau``; returns the node values and node derivatives.  With a
    bottom row [1 1 0 ... 0] under Z, Z' = A Z + [Bu Bu 0] is the linear
    ODE Z' = G Z, G = [[A, Bu], [0, 0]]."""
    n, m = sysm.n, sysm.m
    G = np.zeros((len(tau), n + 1, n + 1))
    # screened before G holds it: the contiguous A is twice as fast to screen
    G[:, :n, :n] = _refuse_stiff(at_times(sysm.A, tau, (n, n), "A(t)"), tau, h, "the plant's step")
    G[:, :n, n] = np.einsum("kij,kj->ki", at_times(sysm.B, tau, (n, m), "B(t)"),
                            at_times(sysm.u, tau, (m,), "u(t)"))
    z0 = np.vstack([np.column_stack([sysm.x0, xi0, np.eye(n)]), np.r_[1.0, 1.0, np.zeros(n)]])
    Z = _affine_scan(G, z0, h)
    # the copy drops the bottom row, which the run would otherwise keep
    return Z[:, :n].copy(), G[::2, :n] @ Z


def adjugate(M: np.ndarray) -> np.ndarray:
    """Adjugate (transposed cofactor matrix); satisfies adj(M) M = det(M) I.

    ``M`` is one square matrix or a stack of them on the leading axes, in
    one batched call.  Size 2 uses closed-form cofactors; the others take
    adj(M)[c, r] = (-1)^(r+c) det(M without row r, column c), one det call
    on all n^2 minors of ``_BLOCK`` matrices at a time, singular M
    included: slower than det(M) inv(M) on wholly nonsingular stacks of
    n >= 6, but a DREM stack starts singular.
    """
    M = _real(M, "M must be")
    if M.ndim < 2 or M.shape[-1] != M.shape[-2] or M.shape[-1] == 0:
        raise ValueError(f"adjugate requires a nonempty square matrix, got shape {M.shape}")
    n = M.shape[-1]
    if n == 2:
        (a, b), (c, d) = np.moveaxis(M, (-2, -1), (0, 1))
        return np.moveaxis(np.array([[d, -b], [-c, a]]), (0, 1), (-2, -1))
    # keep[r] lists the indices other than r; minors[k, c, r] drops row r and column c
    keep = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)
    flat = M.reshape(-1, n, n)
    minor_det = np.empty_like(flat)
    for lo in range(0, len(flat), _BLOCK):
        minors = flat[lo:lo + _BLOCK, keep[None, :, :, None], keep[:, None, None, :]]
        minor_det[lo:lo + _BLOCK] = np.linalg.det(minors)
    return (-1.0) ** np.add.outer(range(n), range(n)) * minor_det.reshape(M.shape)


def mix(M: np.ndarray, Y_stack: np.ndarray) -> tuple:
    """Premultiply the stacked regression by adj(M) to decouple it.

    Returns the pair (Delta, Y_mixed) = (det(M), adj(M) Y_stack), so that
    Y_mixed = Delta * theta.  ``M`` (k, k) and ``Y_stack`` (k,) may carry
    matching leading axes, for instance one per stage time of a run; both
    results then carry the same leading axes.
    """
    M = _real(M, "M must be")
    Y_stack = _real(Y_stack, "Y_stack must be")
    adj = adjugate(M)  # raises ValueError unless M is square
    if Y_stack.shape != M.shape[:-1]:
        raise ValueError("Y_stack length must match the stacked regressor")
    # det(M) by cofactor expansion along the first row
    Delta = (M[..., 0, :] * adj[..., :, 0]).sum(axis=-1)
    return Delta, (adj @ Y_stack[..., None])[..., 0]


def _estimator_pass(scenario, M, Y, tau, refuse_stiff):
    """RK4 on theta_hat' = v - M theta_hat at the stage times ``tau``, the
    form of both laws: M = gamma psi psi^T and v = gamma psi y_reg for the
    gradient law, M = gamma Delta^2 I and v = gamma Delta Y_mixed for DREM.
    With a unit row under theta_hat this is z' = [[-M, v], [0, 0]] z.
    If ``refuse_stiff``, the plant's rule screens the -M block first."""
    n, gamma, h = scenario.system.n, scenario.gamma, scenario.step
    G = np.zeros((len(tau), n + 1, n + 1))
    if scenario.estimator == "drem":
        Delta, Y_mixed = mix(M, Y)
        lam = (Delta * Delta) * gamma
        G[:, range(n), range(n)] = -lam[:, None]
        G[:, :n, n] = (Delta[:, None] * Y_mixed) * gamma
    else:
        P = M[:, 0].reshape(len(tau), n, -1)  # psi as (n, q), y_reg as (q, 1)
        np.matmul(P, P.transpose(0, 2, 1), out=G[:, :n, :n])
        G[:, :n, n] = (P @ Y[:, 0].reshape(len(tau), -1, 1))[:, :, 0]
        G[:, :n, :n] *= -gamma
        G[:, :n, n] *= gamma
    if refuse_stiff:
        _refuse_stiff(G[:, :n, :n], tau, h, f"gamma {gamma:g} with step")
    z0 = np.append(scenario.theta_hat0, 1.0)[:, None]
    return _affine_scan(G, z0, h)[:, :n, 0].copy()


def _hermite(t, Z, dZ, s):
    """Cubic Hermite interpolant of the node data at the times ``s``.

    The local coordinate is taken over each interval's own length, so a
    time on a node returns that node's value exactly.  The times ``s``
    lie in ``[t[0], t[-1]]``, the last on the last interval.
    """
    i = np.minimum(np.searchsorted(t, s, side="right") - 1, len(t) - 2)
    dt = t[i + 1] - t[i]
    u = ((s - t[i]) / dt)[:, None, None]
    dt = dt[:, None, None]
    u2 = u * u
    u3 = u2 * u
    return ((2.0 * u3 - 3.0 * u2 + 1.0) * Z[i] + (u3 - 2.0 * u2 + u) * dt * dZ[i]
            + (3.0 * u2 - 2.0 * u3) * Z[i + 1] + (u3 - u2) * dt * dZ[i + 1])


def _regression(scenario, t, Z, dZ, times, lags):
    """psi and y_reg at ``times - d`` for each lag d, lags on axis 1: one
    delay call and one C call on every lagged time, then the lookup at
    phi(times - d) a block at a time.  Rows where times - d < 0 are zero."""
    n, q = scenario.system.n, scenario.system.q
    s = (times[:, None] - np.asarray(lags)).ravel()
    phi = scenario.delay(np.maximum(s, 0.0))
    C = at_times(scenario.system.C, phi, (q, n), "C(t)")
    psi, y_reg = np.empty((len(s), q, n)), np.empty((len(s), q))
    for lo in range(0, len(s), _BLOCK):
        Zd, c = _hermite(t, Z, dZ, phi[lo:lo + _BLOCK]), C[lo:lo + _BLOCK]
        np.matmul(c, Zd[:, :, 2:], out=psi[lo:lo + _BLOCK])
        np.einsum("kqn,kn->kq", c, Zd[:, :, 1] - Zd[:, :, 0], out=y_reg[lo:lo + _BLOCK])
    psi[s < 0.0] = 0.0
    y_reg[s < 0.0] = 0.0
    # psi is a transposed view of C Phi, not a copy: for q outputs the law's
    # matmul rounds differently on a psi laid out as (n, q)
    shape = (len(times), len(lags)) + ((n,) if q == 1 else (n, q))
    return psi.transpose(0, 2, 1).reshape(shape), y_reg.reshape(shape[:2] + shape[3:])


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
        return self.xhat_at(slice(None))

    def xhat_at(self, k) -> np.ndarray:
        """State estimate xi - Phi theta_hat at node ``k``, an index or a slice."""
        return self.xi[k] - np.einsum("...ij,...j->...i", self.Phi[k], self.theta_hat[k])

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
    StiffnessError refuses a step too long for the plant before the plant
    pass.  A DivergenceError names the first node where x, xi, Phi or
    theta_hat leaves the norm guard (or the finite floats).  If the plant
    stays inside it, a StiffnessError refuses a gain too large for the step
    before the estimator runs.
    """
    sysm = scenario.system
    h, gamma = scenario.step, scenario.gamma
    t = h * np.arange(scenario.steps + 1)
    tau = 0.5 * h * np.arange(2 * scenario.steps + 1)

    # A run that diverges carries on in inf and nan without warnings; the
    # norm guard below then names its first node past the limit.
    with np.errstate(over="ignore", invalid="ignore"):
        Z, dZ = _plant_pass(sysm, scenario.xi0, tau, h)
        plant = np.abs(Z).max(axis=(1, 2))
        # the rows the estimator reads: the stage times, for DREM at each lag
        # too; open loop only the nodes (tau[2k] and t[k] are the same doubles)
        if gamma == 0.0:
            M, Y = _regression(scenario, t, Z, dZ, t, (0.0,))
            theta_hat = np.tile(scenario.theta_hat0, (len(t), 1))
        else:
            lags = scenario.drem_delays or ()
            M, Y = _regression(scenario, t, Z, dZ, tau, (0.0,) + lags)
            theta_hat = _estimator_pass(scenario, M, Y, tau, (plant <= STATE_NORM_LIMIT).all())

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


# No run calls these three, and the package does not export them: the
# estimator pass scans the two laws' affine form, and _regression builds the
# lagged rows.  Tests compare the scan with the laws, and perfbench/tracer.py
# wraps all three, with mix, by name here.
def gradient_update(psi: np.ndarray, y_reg, theta_hat: np.ndarray, gamma: float) -> np.ndarray:
    """Rate of change of theta_hat under the gradient law.

    d(theta_hat)/dt = gamma psi (y_reg - psi . theta_hat); along this flow
    |theta_hat - theta| never increases.  For a single output ``psi`` has
    shape (n,) and ``y_reg`` is a scalar; for q outputs ``psi`` is (n, q)
    and ``y_reg`` is (q,).
    """
    gamma = _finite("gamma", gamma, low=0.0, strict=True)
    if psi.ndim == 1:
        return gamma * psi * (y_reg - psi @ theta_hat)
    return gamma * (psi @ (y_reg - psi.T @ theta_hat))


def extend_regressor(
    t: float,
    ext_delays: tuple,
    hist_psi: TrajectoryHistory,
    hist_y: TrajectoryHistory,
):
    """Stack (psi, y_reg) at t and at each lag t - d, d in ``ext_delays``.

    Rows whose lagged time predates the recorded history are zero-filled,
    which leaves the mixed determinant at zero until every lag is covered.
    The history must reach t.  Returns the pair (M, Y_stack) with M of
    shape (k, n).
    """
    for name, hist, kind in (("hist_psi", hist_psi, "vectors"), ("hist_y", hist_y, "scalars")):
        shape = hist.as_arrays()[1].shape[1:]
        if len(shape) != (kind == "vectors"):
            raise ValueError(f"{name} samples must be {kind}, got shape {shape}")
    s = _finite("t", t) - np.array((0.0,) + tuple(ext_delays))
    times, values = hist_psi.as_arrays()
    M = np.zeros((len(s), values.shape[1]))
    Y = np.zeros(len(s))
    seen = s >= times[0]
    M[seen], Y[seen] = hist_psi.sample(s[seen]), hist_y.sample(s[seen])
    return M, Y


def drem_update(Delta, Y_mixed: np.ndarray, theta_hat: np.ndarray, gamma: float) -> np.ndarray:
    """Componentwise rate gamma * Delta * (Y_mixed - Delta * theta_hat)."""
    gamma = _finite("gamma", gamma, low=0.0, strict=True)
    return gamma * Delta * (Y_mixed - Delta * theta_hat)
