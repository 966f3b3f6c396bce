"""Determinant certificate of a recorded transition matrix.

For any trajectory of dPhi/dt = A(t) Phi, the determinant satisfies
det Phi(t) = det Phi(t_0) exp(integral of trace A over [t_0, t]), which
gives a cheap global consistency certificate for a recorded run.
"""

from __future__ import annotations

import numpy as np

from .history import TrajectoryHistory
from .model import at_times


def liouville_det(hist_Phi: TrajectoryHistory, A) -> float:
    """Worst deviation of det Phi from its trace-integral prediction.

    Compares det Phi(t_k) at every recorded node against det Phi(t_0)
    exp(trapezoidal integral of trace A(s) over [t_0, t_k]) and returns
    the largest absolute difference.  A run's history starts at Phi = I,
    where the factor det Phi(t_0) is 1; a slice of one starts anywhere.
    """
    times, Phis = hist_Phi.as_arrays()
    dets = np.linalg.det(Phis)
    traces = at_times(A, times, Phis.shape[1:], "A(t)").trace(axis1=1, axis2=2)
    dt = np.diff(times)
    integral = np.concatenate(
        ([0.0], np.cumsum(0.5 * dt * (traces[1:] + traces[:-1])))
    )
    return float(np.abs(dets - dets[0] * np.exp(integral)).max())
