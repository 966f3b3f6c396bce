"""Excitation level of the regressor along a trajectory.

Convergence of the parameter estimate requires the regressor to be
persistently exciting: the windowed Gramian

    integral over [t, t+T] of  psi(s)^T psi(s) ds,   psi(s) = C(s) Phi(s),

must stay above a positive floor uniformly in t.  These checks evaluate
that integral (both the n x n regressor form above and its q x q output
companion psi psi^T), scan it over a grid of window starts, and report the
worst-case smallest eigenvalue.

With a delayed measurement the estimator sees the regressor
psi(tau) = C(phi(tau)) Phi(phi(tau)); :func:`delayed_pe_integral`
integrates that regressor's Gramian over [t, t+T] in the time domain.

Every Gramian is one trapezoid rule over the stored nodes strictly inside
the window plus the window's two endpoints, with Phi linearly
interpolated off the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .history import TrajectoryHistory
from .model import DelaySpec, at_times


@dataclass
class ExcitationReport:
    """Windowed excitation scan over one recorded trajectory.

    ``min_eig_output`` and ``min_eig_regressor`` hold the smallest
    eigenvalue of the q x q and n x n window Gramians for each start;
    the ``delta_*`` fields are their infima over the scan and the
    ``pe_*`` flags compare those against ``delta_floor``.
    """

    window: float
    delta_floor: float
    stride: float
    starts: np.ndarray
    min_eig_output: np.ndarray
    min_eig_regressor: np.ndarray
    delta_output: float
    delta_regressor: float
    pe_output: bool
    pe_regressor: bool


def _trapezoid(s, g):
    """Trapezoid rule over the ascending nodes ``s`` of the samples ``g``
    stacked on axis 0."""
    return np.tensordot(0.5 * np.diff(s), g[1:] + g[:-1], axes=1)


def _window(times, t: float, T: float):
    """Quadrature nodes of the window [t, t+T]: its endpoints, clipped to
    the recorded range, around the stored nodes strictly inside it, which
    are ``times[i0:i1]``.  Returns ``(nodes, i0, i1)``.

    The window must lie inside the recorded range up to a small relative
    slack.
    """
    if not T > 0.0:
        raise ValueError("window length T must be positive")
    t0, t_end = float(times[0]), float(times[-1])
    tol = 1e-9 * max(1.0, abs(t_end))
    if t < t0 - tol or t + T > t_end + tol:
        raise ValueError(f"window [{t}, {t + T}] outside recorded range [{t0}, {t_end}]")
    lo, hi = max(t, t0), min(t + T, t_end)
    i0, i1 = np.searchsorted(times, lo, "right"), np.searchsorted(times, hi, "left")
    return np.concatenate(([lo], times[i0:i1], [hi])), i0, i1


def _regressor(C, s, Phi):
    """C(s) Phi(s) at every time of ``s``, shape (len(s), q, n)."""
    return at_times(C, s, (None, Phi.shape[1]), "C(t)") @ Phi


def _products(cp):
    """Per node: the q x q and n x n products psi psi^T and psi^T psi."""
    cpT = cp.transpose(0, 2, 1)
    return cp @ cpT, cpT @ cp


def pe_integral(hist_Phi: TrajectoryHistory, C, t: float, T: float):
    """Windowed Gramians of the output map over [t, t+T].

    Returns the pair (q x q, n x n) of trapezoidal quadratures of
    C Phi Phi^T C^T and (C Phi)^T (C Phi) over the stored nodes, with the
    window endpoints interpolated.  The window must lie inside the
    recorded range up to a small relative slack.
    """
    s, _, _ = _window(hist_Phi.as_arrays()[0], t, T)
    return tuple(_trapezoid(s, g) for g in _products(_regressor(C, s, hist_Phi.sample_at(s))))


def delayed_pe_integral(
    hist_Phi: TrajectoryHistory, C, t: float, T: float, delay: DelaySpec
) -> np.ndarray:
    """Gramian of the delayed regressor over [t, t+T] in the time domain.

    Trapezoidal quadrature of psi(tau)^T psi(tau) with
    psi(tau) = C(phi(tau)) Phi(phi(tau)), over the stored nodes inside
    the window and its two endpoints; Phi is interpolated at each
    measurement time phi(tau).  Stretches where the delay map is clamped
    or flat need no special case.  The window, and every measurement
    time it reaches, must lie inside the recorded range.
    """
    s, _, _ = _window(hist_Phi.as_arrays()[0], t, T)
    phi = at_times(delay, s, (), "phi(t)")
    return _trapezoid(s, _products(_regressor(C, phi, hist_Phi.sample_at(phi)))[1])


def pe_check(
    hist_Phi: TrajectoryHistory,
    C,
    T: float,
    delta_floor: float,
    stride: float = None,
) -> ExcitationReport:
    """Scan window starts across the trajectory and report excitation.

    Window starts run from the first node in steps of ``stride`` (default
    T / 10) as long as the full window fits.  The trajectory must be at
    least one window long.  The products psi psi^T and psi^T psi are
    formed once per stored node and once per window endpoint, each set from
    one call of ``C``; each window adds its two endpoints to its nodes.
    The windows' Gramians are stacked, and one ``eigvalsh`` per stack finds
    their smallest eigenvalues.
    """
    if not T > 0.0:
        raise ValueError("window length T must be positive")
    if not delta_floor > 0.0:
        raise ValueError("delta_floor must be positive")
    if stride is None:
        stride = T / 10.0
    if not stride > 0.0:
        raise ValueError("stride must be positive")
    times, Phi = hist_Phi.as_arrays()
    t0 = float(times[0])
    span = float(times[-1]) - t0 - T
    if span < 0.0:
        raise ValueError(
            f"trajectory length {float(times[-1]) - t0} is shorter than the window {T}"
        )
    count = int(np.floor(span / stride + 1e-9)) + 1
    starts = t0 + stride * np.arange(count)

    node_q, node_n = _products(_regressor(C, times, Phi))
    # every window's two endpoints, as _window clips them, in one grid
    ends = np.column_stack((starts, np.minimum(starts + T, times[-1]))).ravel()
    end_q, end_n = (g.reshape((count, 2) + g.shape[1:])
                    for g in _products(_regressor(C, ends, hist_Phi.sample_at(ends))))
    G_q = np.empty((count,) + node_q.shape[1:])
    G_n = np.empty((count,) + node_n.shape[1:])
    for k, start in enumerate(starts.tolist()):
        s, i0, i1 = _window(times, start, T)
        G_q[k] = _trapezoid(s, np.concatenate((end_q[k, :1], node_q[i0:i1], end_q[k, 1:])))
        G_n[k] = _trapezoid(s, np.concatenate((end_n[k, :1], node_n[i0:i1], end_n[k, 1:])))
    min_q = np.linalg.eigvalsh(G_q).min(axis=1)
    min_n = np.linalg.eigvalsh(G_n).min(axis=1)

    delta_q = float(min_q.min())
    delta_n = float(min_n.min())
    return ExcitationReport(
        window=T,
        delta_floor=delta_floor,
        stride=stride,
        starts=starts,
        min_eig_output=min_q,
        min_eig_regressor=min_n,
        delta_output=delta_q,
        delta_regressor=delta_n,
        pe_output=delta_q >= delta_floor,
        pe_regressor=delta_n >= delta_floor,
    )
