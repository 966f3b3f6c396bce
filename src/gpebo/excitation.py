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
interpolated off the nodes.  All three checks call one kernel, which
forms every window of a call from one evaluation at the nodes and the
endpoints.  Each window sums its own node terms, so it reads the same in
a scan as on its own, bit for bit.  A window's ``t`` and ``T`` pass the
one number converter, and a delay must be a :class:`DelaySpec`, which clamps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .history import TrajectoryHistory
from .model import MAX_SWEEP_NODES, DelaySpec, _finite, at_times


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
    starts: np.ndarray
    min_eig_output: np.ndarray
    min_eig_regressor: np.ndarray
    delta_output: float
    delta_regressor: float
    pe_output: bool
    pe_regressor: bool


def _gramians(hist_Phi: TrajectoryHistory, C, starts, T: float, delay: DelaySpec = None):
    """Trapezoidal Gramians of every window [s, s+T] for s in ``starts``.

    Returns the stacks (q x q, n x n) of the quadratures of psi psi^T and
    psi^T psi, with psi = C Phi, or psi(tau) = C(phi(tau)) Phi(phi(tau))
    given ``delay``.  Each window's rule runs over its own two endpoints,
    clipped to the recorded range, and the stored nodes strictly inside
    them.  The nodes and all endpoints are evaluated once.  Each window
    sums its own node terms as one ``reduceat`` span, since a difference of
    running sums would bury a small window under the large ones before it.
    """
    T = _finite("T", T, low=0.0, strict=True)
    times, Phi = hist_Phi.as_arrays()
    starts = np.asarray(starts, dtype=float)
    t0, t_end = float(times[0]), float(times[-1])
    tol = 1e-9 * max(1.0, abs(t_end))
    outside = ~((starts >= t0 - tol) & (starts + T <= t_end + tol))
    if outside.any():
        t = float(starts[outside][0])
        raise ValueError(f"window [{t}, {t + T}] outside recorded range [{t0}, {t_end}]")
    lo, hi = np.maximum(starts, t0), np.minimum(starts + T, t_end)
    # window k's inner nodes are times[a[k]:b[k]], all within times[r0:r0 + m]
    a, b = np.searchsorted(times, lo, "right"), np.searchsorted(times, hi, "left")
    inner = b > a
    r0 = int(a[inner].min(initial=len(times)))
    m, K = max(int(b[inner].max(initial=0)) - r0, 0), len(starts)
    s = np.concatenate((times[r0:r0 + m], lo, hi))
    phi = s if delay is None else delay(s)
    cp = at_times(C, phi, (None, Phi.shape[1]), "C(t)") @ hist_Phi.sample(phi)
    cpT = cp.transpose(0, 2, 1)

    # On s, window k runs from lo at m + k over its inner nodes first..last
    # to hi at m + K + k (with no inner node: lo -> hi, then hi -> hi).  It
    # sums the trapezoids first..last - 1 as one reduceat span (both ends at
    # the zero row after them if it has < 2 inner nodes), then head and tail.
    first, last, ks = a - r0, b - 1 - r0, np.arange(K)
    span = np.where((last > first)[:, None], np.column_stack((first, last)), max(m - 1, 0))
    i = np.concatenate((m + ks, np.where(inner, last, m + K + ks)))
    j = np.concatenate((np.where(inner, first, m + K + ks), m + K + ks))
    h_nodes = 0.5 * np.diff(s[:m])[:, None, None]
    h_ends = 0.5 * (s[j] - s[i])[:, None, None]

    grams = []
    for g in (cp @ cpT, cpT @ cp):
        node = g[:m]
        terms = np.concatenate((h_nodes * (node[1:] + node[:-1]), np.zeros((1,) + g.shape[1:])))
        ends = h_ends * (g[i] + g[j])
        grams.append(np.add.reduceat(terms, span.ravel(), axis=0)[::2] + ends[:K] + ends[K:])
    return tuple(grams)


def pe_integral(hist_Phi: TrajectoryHistory, C, t: float, T: float):
    """Windowed Gramians of the output map over [t, t+T].

    Returns the pair (q x q, n x n) of trapezoidal quadratures of
    C Phi Phi^T C^T and (C Phi)^T (C Phi) over the stored nodes, with the
    window endpoints interpolated.  ``t`` and ``T`` > 0 must be finite,
    and the window must lie inside the recorded range up to a small
    relative slack; otherwise a ValueError names the cause.
    """
    return tuple(g[0].copy() for g in _gramians(hist_Phi, C, [_finite("t", t)], T))  # no views


def delayed_pe_integral(
    hist_Phi: TrajectoryHistory, C, t: float, T: float, delay: DelaySpec
) -> np.ndarray:
    """Gramian of the delayed regressor over [t, t+T] in the time domain.

    Trapezoidal quadrature of psi(tau)^T psi(tau) with
    psi(tau) = C(phi(tau)) Phi(phi(tau)), over the stored nodes inside
    the window and its two endpoints; Phi is interpolated at each
    measurement time phi(tau).  Stretches where the delay map is clamped
    or flat need no special case.  ``delay`` must be a :class:`DelaySpec`.
    The window, checked as in :func:`pe_integral`, and every measurement
    time it reaches must lie inside the recorded range.
    """
    if not isinstance(delay, DelaySpec):
        raise ValueError(f"delay must be a DelaySpec, got {delay!r}")
    return _gramians(hist_Phi, C, [_finite("t", t)], T, delay)[1][0].copy()  # not a view


def pe_check(hist_Phi: TrajectoryHistory, C, T: float, delta_floor: float) -> ExcitationReport:
    """Scan window starts across the trajectory and report excitation.

    ``T`` and ``delta_floor`` must be finite and positive.  Window starts
    run from the first node in steps of T / 10 as long as the full window
    fits.  The trajectory must be at least one window long, and a window
    so short that it would start ``MAX_SWEEP_NODES`` windows or more is
    refused before anything is allocated.  One kernel call forms every
    window's Gramians from a single evaluation of ``C`` and Phi, and one
    ``eigvalsh`` per stack finds their smallest eigenvalues.
    """
    T = _finite("T", T, low=0.0, strict=True)
    delta_floor = _finite("delta_floor", delta_floor, low=0.0, strict=True)
    times = hist_Phi.as_arrays()[0]
    t0 = float(times[0])
    span = float(times[-1]) - t0 - T
    if span < 0.0:
        raise ValueError(
            f"trajectory length {float(times[-1]) - t0} is shorter than the window {T}"
        )
    stride = T / 10.0
    if not span < stride * (MAX_SWEEP_NODES - 1):
        raise ValueError(f"window {T} is too short: a scan at stride T / 10 would start at least "
                         f"MAX_SWEEP_NODES = {MAX_SWEEP_NODES} windows")
    starts = t0 + stride * np.arange(int(np.floor(span / stride + 1e-9)) + 1)
    min_q, min_n = (np.linalg.eigvalsh(G).min(axis=1) for G in _gramians(hist_Phi, C, starts, T))

    delta_q = float(min_q.min())
    delta_n = float(min_n.min())
    return ExcitationReport(
        window=T,
        delta_floor=delta_floor,
        starts=starts,
        min_eig_output=min_q,
        min_eig_regressor=min_n,
        delta_output=delta_q,
        delta_regressor=delta_n,
        pe_output=delta_q >= delta_floor,
        pe_regressor=delta_n >= delta_floor,
    )
