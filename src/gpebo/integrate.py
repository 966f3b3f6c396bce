"""Fixed-step integration of the plant, observer copy, and estimator.

A run is three passes over the uniform grid t_k = k h:

1. plant: Z = [x | xi | Phi] obeys Z' = A(t) Z + Bu [1 1 0], which never
   sees the estimator.  With A, B and u called once on all nodes and
   midpoints, one affine scan builds each RK4 step's map from A and Bu a
   block at a time and applies the maps by chunked prefix products; the
   pass keeps node values and node derivatives.  A step past RK4's
   stability region for some frozen A(t) is refused first;
2. regression: psi = (C(phi) Phi(phi))^T and y_reg = C(phi) (xi - x)(phi)
   at the times simulate picks (every stage time; for DREM also each
   stage time minus each lag d, zero before t = 0; at gamma = 0 the nodes
   alone).  A lag that is a stage time, tau[k] == d exactly, reads the
   stage-time rows k stages back, zero before stage k, where tau[k] - d is
   0.0 and its row is the one at t = 0; the stage times and every other
   lag's times are looked up, in one delay call and one C call on all of
   them, in the cubic Hermite interpolant of the plant nodes, each
   interval found by arithmetic on the uniform grid.  The estimator
   is fourth-order where the regression is smooth inside every step, as
   on c1 and c2 with the gradient law; a kink of c3's clamp inside a step
   and a DREM lag row switching on at t = d make it lower (ROADMAP item 10);
3. estimator: theta_hat alone.  The gradient law
   gamma psi (y_reg - psi . theta_hat) and the DREM law
   gamma Delta (Y_mixed - Delta theta_hat) are both affine in theta_hat,
   theta_hat' = A theta_hat + v: the plant's scan steps the gradient law,
   and a scalar scan DREM's n components, scalar laws that share the
   coefficient -gamma Delta^2.  A gain and step that grow a mode of a
   frozen A are refused first by the plant's rule.

Only the estimator pass reads the gain.  ``_sweep(base, gammas)``, which
``cli.run`` opens around its gains' ``simulate`` calls, yields one
scenario at several gains, so its runs of positive gain share the first
one's plant pass, plant norms and regression build (for DREM its mix),
as read-only arrays; each runs its own estimator pass, stiffness screen
and divergence guard, and the last frees what they shared.  A zero gain,
a lone positive gain and any scenario the sweep did not yield take the
lone path.

x, xi and the columns of Phi share one linear recursion, so
xi - x = Phi theta, theta = xi(0) - x(0), holds at the nodes to rounding
for any step, and the estimate is xhat = xi - Phi theta_hat; the lookup is
linear in the node data, so y_reg = psi . theta holds too.  DREM stacks
the regression at the lags into M theta = Y, and adj(M) Y = det(M) theta
gives each component of theta its own scalar regression.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np

from .history import TrajectoryHistory
from .model import NamedScenario, _finite, _real, at_times

STATE_NORM_LIMIT = 1e12
# Each kernel works a block at a time, which bounds its temporaries and
# with them a run's peak memory: the matrix scan builds this many step maps
# at once, both scans scan maps in chunks of _CHUNK steps, the Hermite
# lookup takes this many times, and adjugate's minors, n^2 (n-1)^2 floats
# a matrix, this many matrices.  The scalar scan's maps, n + 1 floats a
# step, are formed for the whole run.
_MAP_BLOCK = 1024
_CHUNK = 32
_LOOKUP_BLOCK = 2048
_ADJ_BLOCK = 256
# Inside a sweep: [its scenarios whose runs share passes and are still to
# come, their passes, the law's factors].
_SWEEP = ContextVar("_SWEEP", default=None)


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


def _step_maps(g, h):
    """RK4's step maps for z' = G(t) z with step ``h``, given G at the stage
    times ``g`` of consecutive steps: a step of a linear ODE multiplies by
    what its stage formulas make of the identity."""
    eye = np.eye(g.shape[-1])
    G0, Gm, G1 = g[:-1:2], g[1::2], g[2::2]
    K2 = Gm @ (eye + 0.5 * h * G0)
    K3 = Gm @ (eye + 0.5 * h * K2)
    K4 = G1 @ (eye + h * K3)
    return eye + (h / 6.0) * (G0 + 2.0 * (K2 + K3) + K4)


def _affine_scan(A, b, z0, row, h):
    """RK4 on z' = A(t) z + b(t) row with step ``h``, A and b given at every
    stage time (node k is 2k, the midpoint after it 2k + 1); returns the
    node values.  Under the unit row ``row``, z' = [[A, b], [0, 0]] z.

    The step maps are built from that matrix, ``_MAP_BLOCK`` steps at a time
    in one reused buffer, and scanned in chunks of ``_CHUNK`` steps, a
    work-efficient scan (Blelloch 1990): ``_CHUNK - 1`` batched products
    across all chunks form each chunk's prefix products, the state and its
    unit row are carried over the chunk ends, and one batched product
    applies every prefix product to its chunk's start.  Identity maps pad a
    ragged last chunk.  This associates differently from stepping one map
    at a time, so the nodes match stagewise RK4 to rounding, not bit for bit.
    """
    d, e = len(z0), len(z0) + 1
    Z = np.empty((len(A) // 2 + 1,) + z0.shape)
    Z[0], z = z0, np.vstack([z0, row])
    G = np.zeros((min(len(A), 2 * _MAP_BLOCK + 1), e, e))
    for lo in range(0, len(Z) - 1, _MAP_BLOCK):
        stages = slice(2 * lo, 2 * (lo + _MAP_BLOCK) + 1)
        g = G[:len(A[stages])]
        g[:, :d, :d], g[:, :d, d] = A[stages], b[stages]
        Q = _step_maps(g, h)
        steps, pad = len(Q), -len(Q) % _CHUNK
        if pad:
            Q = np.concatenate([Q, np.broadcast_to(np.eye(e), (pad, e, e))])
        P = Q.reshape(-1, _CHUNK, e, e)
        for j in range(1, _CHUNK):
            np.matmul(P[:, j], P[:, j - 1], out=P[:, j])
        starts = np.empty((len(P),) + z.shape)
        for c, chunk in enumerate(P):
            starts[c] = z
            z = chunk[-1] @ z
        nodes = (P @ starts[:, None]).reshape((-1,) + z.shape)[:steps]
        Z[lo + 1:lo + 1 + steps] = nodes[:, :d]
        z = nodes[-1]
    return Z


def _scalar_scan(a, v, z0, h):
    """``_affine_scan`` of A = a I, b = v for scalar a: a step is z -> r z + c,
    the diagonal and last column of ``_step_maps``' map in its association,
    formed for the whole run and scanned in the same padded chunks, so the
    nodes match bit for bit where matmul rounds each product (OpenBLAS
    fuses a multiply-add at n = 1 and 5, which leaves them to rounding)."""
    steps, n = len(a) // 2, len(z0)
    Z = np.zeros((steps + -steps % _CHUNK + 1, n))  # node 0, then c padded to whole chunks
    Z[0], r, c = z0, np.ones(len(Z) - 1), Z[1:]
    a0, am, a1 = a[:-1:2], a[1::2], a[2::2]
    k2 = am * (1.0 + 0.5 * h * a0)
    k3 = am * (1.0 + 0.5 * h * k2)
    r[:steps] = 1.0 + (h / 6.0) * (a0 + 2.0 * (k2 + k3) + a1 * (1.0 + h * k3))
    am, a1 = am[:, None], a1[:, None]
    K2 = 0.5 * h * v[:-1:2] * am + v[1::2]
    K3 = K2 * (0.5 * h) * am + v[1::2]
    c[:steps] = (2.0 * (K2 + K3) + v[:-1:2] + (K3 * h * a1 + v[2::2])) * (h / 6.0)
    del k2, k3, K2, K3
    R, C = r.reshape(-1, _CHUNK), c.reshape(-1, _CHUNK, n)
    for j in range(1, _CHUNK):
        C[:, j] += R[:, j, None] * C[:, j - 1]
        R[:, j] *= R[:, j - 1]
    starts = [z0]
    for k in range(len(R) - 1):
        starts.append(R[k, -1] * starts[-1] + C[k, -1])
    C += R[:, :, None] * np.array(starts)[:, None]
    return Z[:steps + 1]


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
    """RK4 on Z = [x | xi | Phi], Z' = A Z + Bu [1 1 0 ... 0], with A and Bu
    taken once at each stage time of ``tau``; returns Z and Z' at the nodes."""
    n, m = sysm.n, sysm.m
    A = _refuse_stiff(at_times(sysm.A, tau, (n, n), "A(t)"), tau, h, "the plant's step")
    Bu = np.einsum("kij,kj->ki", at_times(sysm.B, tau, (n, m), "B(t)"),
                   at_times(sysm.u, tau, (m,), "u(t)"))
    Z = _affine_scan(A, Bu, np.column_stack([sysm.x0, xi0, np.eye(n)]),
                     np.r_[1.0, 1.0, np.zeros(n)], h)
    dZ = A[::2] @ Z
    dZ[:, :, 0] += Bu[::2]  # column by column: numpy adds a broadcast column slowly
    dZ[:, :, 1] += Bu[::2]
    return Z, dZ


def _cofactors2(M):
    """adj(M) = [[d, -b], [-c, a]] of 2 x 2 matrices M = [[a, b], [c, d]] on
    the last two axes, as its two rows of entries over the leading axes."""
    (a, b), (c, d) = np.moveaxis(M, (-2, -1), (0, 1))
    return (d, -b), (-c, a)


def adjugate(M: np.ndarray) -> np.ndarray:
    """Adjugate (transposed cofactor matrix); satisfies adj(M) M = det(M) I.

    ``M`` is one square matrix or a stack of them on the leading axes, in
    one batched call.  Size 2 uses closed-form cofactors; the others take
    adj(M)[c, r] = (-1)^(r+c) det(M without row r, column c), one det call
    on all n^2 minors of ``_ADJ_BLOCK`` matrices at a time, singular M
    included: slower than det(M) inv(M) on wholly nonsingular stacks of
    n >= 6, but a DREM stack starts singular.
    """
    M = _real(M, "M must be")
    if M.ndim < 2 or M.shape[-1] != M.shape[-2] or M.shape[-1] == 0:
        raise ValueError(f"adjugate requires a nonempty square matrix, got shape {M.shape}")
    n = M.shape[-1]
    if n == 2:
        return np.moveaxis(np.array(_cofactors2(M)), (0, 1), (-2, -1))
    # keep[r] lists the indices other than r; minors[k, c, r] drops row r and column c
    keep = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)
    flat = M.reshape(-1, n, n)
    minor_det = np.empty_like(flat)
    for lo in range(0, len(flat), _ADJ_BLOCK):
        minors = flat[lo:lo + _ADJ_BLOCK, keep[None, :, :, None], keep[:, None, None, :]]
        minor_det[lo:lo + _ADJ_BLOCK] = np.linalg.det(minors)
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
    two = M.shape[-2:] == (2, 2)
    adj = None if two else adjugate(M)  # raises ValueError unless M is square
    if Y_stack.shape != M.shape[:-1]:
        raise ValueError("Y_stack length must match the stacked regressor")
    if two:  # the same sums from the entries, with no stacked adj(M) or batched product
        rows = _cofactors2(M)
        Delta = M[..., 0, 0] * rows[0][0]
        Delta += M[..., 0, 1] * rows[1][0]
        Y_mixed = np.empty(Y_stack.shape)
        for i, (u, w) in enumerate(rows):
            np.multiply(u, Y_stack[..., 0], out=Y_mixed[..., i])
            Y_mixed[..., i] += w * Y_stack[..., 1]
        return Delta, Y_mixed
    # det(M) by cofactor expansion along the first row
    Delta = (M[..., 0, :] * adj[..., :, 0]).sum(axis=-1)
    return Delta, (adj @ Y_stack[..., None])[..., 0]


def _estimator_pass(scenario, factors, tau, refuse_stiff):
    """RK4 on theta_hat' = A theta_hat + v at the stage times ``tau``, the
    form of both laws: A = -gamma psi psi^T and v = gamma psi y_reg for the
    gradient law, by the matrix scan; A = a I, a = -gamma Delta^2, and
    v = gamma Delta Y_mixed for DREM, by the scalar scan.  If
    ``refuse_stiff``, the plant's rule screens A (for DREM, a) first.

    ``factors`` is the list of the law's gain-free factors: psi as (n, q)
    and y_reg as (q, 1) for the gradient law, Delta and Y_mixed for DREM.
    It is emptied, so that they are freed once A and v are formed unless a
    sweep holds them."""
    gamma, h = scenario.gamma, scenario.step
    who = f"gamma {gamma:g} with step"
    if scenario.estimator == "drem":
        Delta, Y_mixed = factors
        factors.clear()
        a, v = Delta * Delta * -gamma, Y_mixed * Delta[:, None] * gamma
        del Delta, Y_mixed
        if refuse_stiff:
            _refuse_stiff(a[:, None, None], tau, h, who)
        return _scalar_scan(a, v, scenario.theta_hat0, h)
    P, y = factors
    factors.clear()
    A = P @ P.transpose(0, 2, 1)
    A *= -gamma
    v = (P @ y)[:, :, 0]
    v *= gamma
    del P, y
    if refuse_stiff:
        _refuse_stiff(A, tau, h, who)
    return _affine_scan(A, v, scenario.theta_hat0[:, None], np.ones(1), h)[:, :, 0]


def _interval(t, s):
    """For each time of ``s`` in ``[0, t[-1]]``, the index of the last node
    of the grid ``t = h * arange(N)`` at or before it, capped at N - 2, as
    bisection finds it: floor(s / h), corrected by one comparison each way."""
    last = len(t) - 2
    i = np.minimum((s / t[1]).astype(np.intp), last)
    i -= t[i] > s
    i += (t[i + 1] <= s) & (i < last)
    return i


def _hermite(t, Z, dZ, s):
    """Cubic Hermite interpolant of the node data at the times ``s``.

    The local coordinate is taken over each interval's own length, so a
    time on a node returns that node's value exactly.  The times ``s``
    lie in ``[0, t[-1]]`` on the grid ``t = h * arange(N)``.
    """
    i = _interval(t, s)
    dt = t[i + 1] - t[i]
    u = ((s - t[i]) / dt)[:, None, None]
    dt = dt[:, None, None]
    u2 = u * u
    u3 = u2 * u
    return ((2.0 * u3 - 3.0 * u2 + 1.0) * Z[i] + (u3 - 2.0 * u2 + u) * dt * dZ[i]
            + (3.0 * u2 - 2.0 * u3) * Z[i + 1] + (u3 - u2) * dt * dZ[i + 1])


def _regression(scenario, t, Z, dZ, times, lags=()):
    """psi and y_reg at ``times`` (row 0) and at ``times - d`` for each lag d,
    rows on axis 1; rows where times - d < 0 are zero.  A lag that is a time
    of ``times``, ``times[k] == d`` exactly, is a delay line of row 0: its
    rows j >= k are row 0's rows j - k (row k is row 0 at t = 0, as
    times[k] - d is 0.0) and its rows j < k are zero.  Row 0 and every
    other lag's rows are looked up: one delay call and one C call on all
    their times, then the lookup at phi a block at a time."""
    n, q, T, d = scenario.system.n, scenario.system.q, len(times), np.r_[0.0, lags]
    k = np.minimum(np.searchsorted(times, d), T - 1)
    line = times[k] == d
    line[0] = False  # row 0 is looked up
    s = times - d[~line, None]
    phi = scenario.delay(np.maximum(s, 0.0).ravel())
    C = at_times(scenario.system.C, phi, (q, n), "C(t)")
    psi, y_reg = np.empty((T, len(d), q, n)), np.empty((T, len(d), q))
    for row, i in enumerate(np.flatnonzero(~line)):
        phi_i, C_i = phi[row * T:(row + 1) * T], C[row * T:(row + 1) * T]
        for lo in range(0, T, _LOOKUP_BLOCK):
            hi = lo + _LOOKUP_BLOCK
            Zd, c = _hermite(t, Z, dZ, phi_i[lo:hi]), C_i[lo:hi]
            np.matmul(c, Zd[:, :, 2:], out=psi[lo:hi, i])
            np.einsum("kqn,kn->kq", c, Zd[:, :, 1] - Zd[:, :, 0], out=y_reg[lo:hi, i])
        psi[s[row] < 0.0, i] = y_reg[s[row] < 0.0, i] = 0.0
    for i in np.flatnonzero(line):
        psi[k[i]:, i], y_reg[k[i]:, i] = psi[:T - k[i], 0], y_reg[:T - k[i], 0]
        psi[:k[i], i] = y_reg[:k[i], i] = 0.0
    # psi is a transposed view of C Phi, not a copy: for q outputs the law's
    # matmul rounds differently on a psi laid out as (n, q)
    shape = (T, len(d)) + ((n,) if q == 1 else (n, q))
    return psi.transpose(0, 1, 3, 2).reshape(shape), y_reg.reshape(shape[:2] + shape[3:])


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


@contextmanager
def _sweep(base, gammas):
    """Yields ``base`` at each gain of ``gammas``.  Inside, the ``simulate``
    calls on the yielded scenarios of positive gain, two or more, make the
    passes no gain enters once: the first call runs them and keeps them
    read-only, the last frees them.  A zero gain, whose lookup reads only
    the nodes, and any scenario the scope did not yield run alone."""
    scenarios = [replace(base, gamma=g) for g in gammas]
    sharing = [s for s in scenarios if s.gamma != 0.0]
    token = _SWEEP.set([sharing, None, None] if len(sharing) > 1 else None)
    try:
        yield scenarios
    finally:
        _SWEEP.reset(token)


def _shared_passes(scenario):
    """The passes no gain enters: (t, tau, Z, plant norms, psi, y_reg) and
    the law's factors for ``_estimator_pass`` (None open loop); M and Y are
    freed on return, once the factors are formed."""
    h = scenario.step
    t = h * np.arange(scenario.steps + 1)
    tau = 0.5 * h * np.arange(2 * scenario.steps + 1)
    Z, dZ = _plant_pass(scenario.system, scenario.xi0, tau, h)
    plant = np.abs(Z).max(axis=(1, 2))
    # the rows the estimator reads: the stage times, for DREM at each lag
    # too; open loop only the nodes (tau[2k] and t[k] are the same doubles)
    if scenario.gamma == 0.0:
        M, Y = _regression(scenario, t, Z, dZ, t)
        return (t, tau, Z, plant, M[:, 0], Y[:, 0]), None
    M, Y = _regression(scenario, t, Z, dZ, tau, scenario.drem_delays or ())
    del dZ
    passes = t, tau, Z, plant, M[::2, 0].copy(), Y[::2, 0].copy()
    if scenario.estimator == "drem":
        return passes, list(mix(M, Y))
    return passes, [M[:, 0].reshape(len(M), scenario.system.n, -1), Y[:, 0].reshape(len(M), -1, 1)]


def _passes(scenario):
    """``_shared_passes`` of ``scenario``, or, if a sweep yielded it at a
    positive gain, the ones the sweep's first run made; the factors as a
    list the estimator pass may empty."""
    sweep = _SWEEP.get()
    k = next((k for k, s in enumerate(sweep[0]) if s is scenario), None) if sweep else None
    if k is None:
        return _shared_passes(scenario)
    del sweep[0][k]
    if sweep[1] is None:
        sweep[1:] = _shared_passes(scenario)
        for a in sweep[1] + tuple(sweep[2]):
            a.flags.writeable = False
    if sweep[0]:
        return sweep[1], list(sweep[2])  # later runs read them too
    passes, factors = sweep[1:]
    sweep[1:] = None, None
    return passes, factors  # the only reference: the estimator pass frees them


def simulate(scenario: NamedScenario) -> SimulationResult:
    """Run one scenario over its horizon and return the grid trajectories.

    The grid is t_k = k h with the horizon rounded to the nearest whole
    number of steps.  A zero scenario gain freezes theta_hat, which turns
    the run into an open-loop diagnostic of the observer copy.  A
    StiffnessError refuses a step too long for the plant before the plant
    pass.  A DivergenceError names the first node where x, xi, Phi or
    theta_hat leaves the norm guard (or the finite floats).  If the plant
    stays inside it, a StiffnessError refuses a gain too large for the step
    before the estimator runs.  Inside a CLI sweep, one scenario at several
    gains, a run of positive gain shares its plant pass and regression
    build with the sweep's other such runs: it returns read-only t, x, xi,
    Phi, psi and y_reg, the same arrays as theirs, with the same values and
    the same errors as alone.
    """
    # A run that diverges carries on in inf and nan without warnings; the
    # norm guard below then names its first node past the limit.
    with np.errstate(over="ignore", invalid="ignore"):
        (t, tau, Z, plant, psi, y_reg), factors = _passes(scenario)
        if factors is None:
            theta_hat = np.tile(scenario.theta_hat0, (len(t), 1))
        else:
            theta_hat = _estimator_pass(scenario, factors, tau,
                                        (plant <= STATE_NORM_LIMIT).all())

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
        theta=scenario.xi0 - scenario.system.x0,
        psi=psi,
        y_reg=y_reg,
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
