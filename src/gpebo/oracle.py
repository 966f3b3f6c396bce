"""Reference transition matrices and determinant certificates.

For a constant coefficient matrix the transition matrix is the matrix
exponential Phi(t) = exp(A t), available in closed form for several common
structures and by scaling-and-squaring otherwise.  These serve as ground
truth when validating the integrator.

For any trajectory of dPhi/dt = A(t) Phi, the determinant satisfies
det Phi(t) = exp(integral of trace A), which gives a cheap global
consistency certificate for a recorded run.
"""

from __future__ import annotations

import math

import numpy as np

from .history import TrajectoryHistory
from .model import at_times


def matrix_exponential(M: np.ndarray) -> np.ndarray:
    """exp(M) by scaling and squaring with a Taylor kernel.

    The argument is scaled by a power of two until its infinity norm is
    at most 1/2, the series is summed to machine precision, and the
    result is squared back up.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix exponential requires a square matrix")
    nrm = np.linalg.norm(M, np.inf)
    s = 0
    if nrm > 0.5:
        s = int(math.ceil(math.log2(nrm / 0.5)))
    X = M / (2.0**s)
    E = np.eye(M.shape[0]) + X
    term = X
    for k in range(2, 40):
        term = term @ X / k
        E = E + term
        if np.linalg.norm(term, np.inf) < 1e-20 * np.linalg.norm(E, np.inf):
            break
    for _ in range(s):
        E = E @ E
    return E


class LtiOracle:
    """Closed-form Phi(t) = exp(A t) for a constant coefficient matrix.

    Recognizes zero, diagonal, 2 x 2 strictly triangular, and 2 x 2
    scaled-rotation ([[a, b], [-b, a]]) structure; anything else falls
    back to scaling-and-squaring.
    """

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be a square matrix")
        self.A = A
        self.n = A.shape[0]
        self._kind = self._classify(A)

    @staticmethod
    def _classify(A):
        n = A.shape[0]
        if not A.any():
            return "zero"
        if not (A - np.diag(np.diag(A))).any():
            return "diagonal"
        if n == 2:
            if A[0, 0] == 0.0 and A[1, 1] == 0.0 and (A[0, 1] == 0.0 or A[1, 0] == 0.0):
                return "nilpotent"
            if A[0, 0] == A[1, 1] and A[1, 0] == -A[0, 1]:
                return "rotation"
        return "general"

    def phi(self, t: float) -> np.ndarray:
        """Transition matrix at time ``t``."""
        A = self.A
        if self._kind == "zero":
            return np.eye(self.n)
        if self._kind == "diagonal":
            return np.diag(np.exp(np.diag(A) * t))
        if self._kind == "nilpotent":
            return np.eye(2) + A * t
        if self._kind == "rotation":
            a = A[0, 0]
            b = A[0, 1]
            ct = math.cos(b * t)
            st = math.sin(b * t)
            return math.exp(a * t) * np.array([[ct, st], [-st, ct]])
        return matrix_exponential(A * t)


def liouville_det(hist_Phi: TrajectoryHistory, A) -> float:
    """Worst deviation of det Phi from its trace-integral prediction.

    Compares det Phi(t_k) at every recorded node against
    exp(trapezoidal integral of trace A(s) over [t_0, t_k]) and returns
    the largest absolute difference.
    """
    times, Phis = hist_Phi.as_arrays()
    dets = np.linalg.det(Phis)
    traces = at_times(A, times, Phis.shape[1:], "A(t)").trace(axis1=1, axis2=2)
    dt = np.diff(times)
    integral = np.concatenate(
        ([0.0], np.cumsum(0.5 * dt * (traces[1:] + traces[:-1])))
    )
    return float(np.abs(dets - np.exp(integral)).max())
