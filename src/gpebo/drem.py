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

import math

import numpy as np

from .history import TrajectoryHistory


def default_ext_delays(n: int, spacing: float = 0.5) -> tuple:
    """n - 1 equally spaced lags: (spacing, 2 spacing, ...)."""
    return tuple(spacing * i for i in range(1, n))


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

    ``M`` is one square matrix or a stack of them on the leading axes.
    Sizes up to 3 use closed-form cofactors; larger well-conditioned
    matrices go through det(M) inv(M), with a minor-expansion fallback
    when M is singular.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError("adjugate requires a square matrix")
    n = M.shape[-1]
    if n == 1:
        return np.ones_like(M)
    if n <= 3:
        # entry (r, c) of every matrix in the stack is P[r][c]
        P = np.moveaxis(M, (-2, -1), (0, 1))
        if n == 2:
            (a, b), (c, d) = P
            cof = [[d, -b], [-c, a]]
        else:
            (a, b, c), (d, e, f), (g, h, i) = P
            cof = [
                [e * i - f * h, c * h - b * i, b * f - c * e],
                [f * g - d * i, a * i - c * g, c * d - a * f],
                [d * h - e * g, b * g - a * h, a * e - b * d],
            ]
        return np.moveaxis(np.array(cof), (0, 1), (-2, -1))
    if M.ndim > 2:
        return np.array([adjugate(m) for m in M.reshape(-1, n, n)]).reshape(M.shape)
    det = np.linalg.det(M)
    scale = np.abs(M).max()
    if scale > 0 and abs(det) > 1e-12 * scale**n:
        return det * np.linalg.inv(M)
    adj = np.empty((n, n))
    for r in range(n):
        rows = [rr for rr in range(n) if rr != r]
        for c in range(n):
            cols = [cc for cc in range(n) if cc != c]
            minor = M[np.ix_(rows, cols)]
            adj[c, r] = (-1.0) ** (r + c) * np.linalg.det(minor)
    return adj


def mix(M: np.ndarray, Y_stack: np.ndarray) -> tuple:
    """Premultiply the stacked regression by adj(M) to decouple it.

    Returns the pair (Delta, Y_mixed) = (det(M), adj(M) Y_stack), so that
    Y_mixed = Delta * theta.  ``M`` (k, k) and ``Y_stack`` (k,) may carry
    matching leading axes, for instance one per stage time of a run; both
    results then carry the same leading axes.
    """
    M = np.asarray(M, dtype=float)
    Y_stack = np.asarray(Y_stack, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError("mixing requires a square stacked regressor")
    if Y_stack.shape != M.shape[:-1]:
        raise ValueError("Y_stack length must match the stacked regressor")
    adj = adjugate(M)
    # det(M) by cofactor expansion along the first row
    Delta = (M[..., 0, :] * adj[..., :, 0]).sum(axis=-1)
    return Delta, (adj @ Y_stack[..., None])[..., 0]


def drem_update(Delta, Y_mixed: np.ndarray, theta_hat: np.ndarray, gamma: float) -> np.ndarray:
    """Componentwise rate gamma * Delta * (Y_mixed - Delta * theta_hat)."""
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    return gamma * Delta * (Y_mixed - Delta * theta_hat)
