"""Regressor extension and mixing for decoupled parameter estimation.

The vector regression y_reg = psi . theta is extended by stacking it at the
current time and at a set of fixed lags, giving M(t) theta = Y(t) with a
square M.  Multiplying by the adjugate of M decouples the unknowns:

    adj(M) Y = det(M) theta,

so each component of theta can be driven by its own scalar update with rate
gamma * Delta * (Y_mixed_i - Delta * theta_hat_i), Delta = det(M).  Each
|theta_hat_i - theta_i| is then nonincreasing regardless of the others.
:func:`mix` returns the pair (Delta, Y_mixed) and :func:`drem_update` takes
it as two plain arrays.
"""

from __future__ import annotations

import numpy as np

from .history import TrajectoryHistory
from .model import _finite

# adjugate's minors, n^2 (n-1)^2 floats a matrix, are taken this many matrices at a time
_BLOCK = 256


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
    lags = (0.0,) + tuple(ext_delays)
    times, values = hist_psi.as_arrays()
    M = np.zeros((len(lags), values.shape[1]))
    Y = np.zeros(len(lags))
    for i, d in enumerate(lags):
        s = t - d
        if s >= times[0]:
            M[i] = hist_psi.sample(s)
            Y[i] = hist_y.sample(s)
    return M, Y


def adjugate(M: np.ndarray) -> np.ndarray:
    """Adjugate (transposed cofactor matrix); satisfies adj(M) M = det(M) I.

    ``M`` is one square matrix or a stack of them on the leading axes, in
    one batched call.  Size 2 uses closed-form cofactors; the others take
    adj(M)[c, r] = (-1)^(r+c) det(M without row r, column c), one det call
    on all n^2 minors of ``_BLOCK`` matrices at a time, singular M
    included: slower than det(M) inv(M) on wholly nonsingular stacks of
    n >= 6, but a DREM stack starts singular.
    """
    M = np.asarray(M, dtype=float)
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
    M = np.asarray(M, dtype=float)
    Y_stack = np.asarray(Y_stack, dtype=float)
    adj = adjugate(M)  # raises ValueError unless M is square
    if Y_stack.shape != M.shape[:-1]:
        raise ValueError("Y_stack length must match the stacked regressor")
    # det(M) by cofactor expansion along the first row
    Delta = (M[..., 0, :] * adj[..., :, 0]).sum(axis=-1)
    return Delta, (adj @ Y_stack[..., None])[..., 0]


def drem_update(Delta, Y_mixed: np.ndarray, theta_hat: np.ndarray, gamma: float) -> np.ndarray:
    """Componentwise rate gamma * Delta * (Y_mixed - Delta * theta_hat)."""
    gamma = _finite("gamma", gamma, low=0.0, strict=True)
    return gamma * Delta * (Y_mixed - Delta * theta_hat)
