"""Reference solutions for the built-in scenarios, computed apart from gpebo.

The plant is written out again from its documented formulas,

    A(t) = [[0, 1], [-sin(t)^2, 0]],  B = [0, 1]^T,  C = [1, 0],  u(t) = sin(t),

and integrated together with its transition matrix by scipy's DOP853 at
tight tolerances.  Window Gramians are composite Gauss-Legendre
quadratures on the dense output, split at the kink where a delay map
leaves its clamp at zero.  The estimators' error equations are integrated
by DOP853 too, with the regressor taken from the dense output.  Nothing
here imports gpebo.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

C_ROW = np.array([1.0, 0.0])
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_PANEL = 0.05


def _phi_c3(t: float) -> float:
    return min(t, max(0.0, t - 1.0 - 0.9 * math.sin(t)))


DELAY_MAPS = {
    "c1": lambda t: t,
    "c2": lambda t: max(0.0, t - 1.0),
    "c3": _phi_c3,
}

# Times where a delay map leaves its clamp at zero: the integrand has a
# kink there, so quadrature panels are split at these points.
DELAY_KINKS = {
    "c1": (),
    "c2": (1.0,),
    "c3": (brentq(lambda t: t - 1.0 - 0.9 * math.sin(t), 1.0, 2.0, xtol=1e-15),),
}

# d(phi)/dt of each delay map before its clamp, at the measurement time
# s: the weight delayed_pe_integral documents (see delayed_formula_gramian).
DELAY_RATES = {
    "c1": lambda s: 1.0,
    "c2": lambda s: 1.0,
    "c3": lambda s: 1.0 - 0.9 * math.cos(s),
}

# The default DREM extension: psi(t) stacked with psi(t - DREM_LAG), the
# lagged row zero while t < DREM_LAG.
DREM_LAG = 0.5


def _rhs(t, z):
    s = math.sin(t)
    x1, x2, p11, p12, p21, p22 = z
    a21 = -s * s
    return [x2, a21 * x1 + s, p21, p22, a21 * p11, a21 * p12]


class PlantReference:
    """Dense DOP853 solution of x' = A x + B u and Phi' = A Phi on [0, horizon]."""

    def __init__(self, x0, horizon: float):
        z0 = [float(x0[0]), float(x0[1]), 1.0, 0.0, 0.0, 1.0]
        sol = solve_ivp(
            _rhs, (0.0, horizon), z0, method="DOP853",
            rtol=1e-12, atol=1e-13, dense_output=True,
        )
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        self._dense = sol.sol
        self.horizon = horizon

    def x(self, t) -> np.ndarray:
        """Plant state at the times ``t``, shape (len(t), 2)."""
        return self._dense(np.asarray(t, dtype=float))[:2].T

    def Phi(self, t) -> np.ndarray:
        """Transition matrix at the times ``t``, shape (len(t), 2, 2)."""
        return self._dense(np.asarray(t, dtype=float))[2:].T.reshape(-1, 2, 2)


def _quadrature_nodes(lo: float, hi: float, kinks=()):
    """Composite Gauss-Legendre nodes and weights on [lo, hi]."""
    cuts = [lo] + [k for k in kinks if lo < k < hi] + [hi]
    nodes, weights = [], []
    for a, b in zip(cuts, cuts[1:]):
        panels = max(1, math.ceil((b - a) / _PANEL))
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[1:] + edges[:-1])
        nodes.append((mid[:, None] + half[:, None] * _GL_NODES).ravel())
        weights.append((half[:, None] * _GL_WEIGHTS).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def output_gramians(ref: PlantReference, t: float, T: float):
    """Undelayed window Gramians over [t, t+T]: (1 x 1, 2 x 2).

    Integrates C Phi Phi^T C^T and (C Phi)^T (C Phi) with Phi from the
    reference solution.
    """
    s, w = _quadrature_nodes(t, t + T)
    rows = ref.Phi(s)[:, 0, :]  # C Phi with C = [1, 0]
    G_n = np.einsum("k,ki,kj->ij", w, rows, rows)
    return np.array([[np.trace(G_n)]]), G_n


def delayed_gramian(ref: PlantReference, scenario_id: str, t: float, T: float) -> np.ndarray:
    """Integral of psi(tau)^T psi(tau) over [t, t+T] in the time domain.

    ``psi(tau) = C Phi(phi(tau))`` is the regressor the estimator sees at
    time ``tau`` through the scenario's delay map.
    """
    phi = DELAY_MAPS[scenario_id]
    s, w = _quadrature_nodes(t, t + T, DELAY_KINKS[scenario_id])
    rows = ref.Phi(np.array([phi(v) for v in s]))[:, 0, :]
    return np.einsum("k,ki,kj->ij", w, rows, rows)


def delayed_formula_gramian(ref: PlantReference, scenario_id: str, t: float,
                            T: float) -> np.ndarray:
    """delayed_pe_integral's documented delay-domain formula, evaluated here:
    the integral over [phi(t), phi(t+T)] of (C Phi)^T (C Phi) / phi'(s) ds,
    with phi' the rate of the unclamped map at s.

    This is not the time-domain Gramian of :func:`delayed_gramian` where
    phi' varies or the window meets the clamp; it is what the function
    says it computes.
    """
    phi = DELAY_MAPS[scenario_id]
    a, b = phi(t), phi(t + T)
    if b == a:
        return np.zeros((2, 2))
    s, w = _quadrature_nodes(a, b)
    rows = ref.Phi(s)[:, 0, :]
    rate = np.array([DELAY_RATES[scenario_id](v) for v in s])
    return np.einsum("k,ki,kj->ij", w / rate, rows, rows)


def _psi(ref: PlantReference, scenario_id: str, t: float) -> np.ndarray:
    """The delayed regressor C Phi(phi(t))."""
    return ref.Phi(np.array([DELAY_MAPS[scenario_id](t)]))[0, 0, :]


def estimate(ref: PlantReference, scenario_id: str, estimator: str, gamma: float,
             theta, theta0, t) -> np.ndarray:
    """theta_hat at the times ``t`` (ascending, within the horizon), by DOP853.

    The error e = theta_hat - theta obeys, with psi = C Phi(phi(t)),
    - gradient: e' = -gamma psi psi^T e;
    - drem:     e_i' = -gamma Delta^2 e_i, Delta = det [psi(t); psi(t - DREM_LAG)].

    Integration restarts at every kink or jump of psi or Delta.
    """
    theta = np.asarray(theta, dtype=float)
    if estimator == "gradient":
        def rate(s, e):
            p = _psi(ref, scenario_id, s)
            return -gamma * p * (p @ e)
        breaks = DELAY_KINKS[scenario_id]
    else:
        def rate(s, e):
            p = _psi(ref, scenario_id, s)
            if s < DREM_LAG:
                return np.zeros(2)
            q = _psi(ref, scenario_id, s - DREM_LAG)
            delta = p[0] * q[1] - p[1] * q[0]
            return -gamma * delta * delta * e
        kinks = DELAY_KINKS[scenario_id]
        breaks = kinks + (DREM_LAG,) + tuple(k + DREM_LAG for k in kinks)
    t = np.asarray(t, dtype=float)
    horizon = float(t[-1])
    cuts = [0.0] + sorted(b for b in breaks if 0.0 < b < horizon) + [horizon]
    out = np.empty((len(t), len(theta)))
    e = np.asarray(theta0, dtype=float) - theta
    for lo, hi in zip(cuts, cuts[1:]):
        sol = solve_ivp(rate, (lo, hi), e, method="DOP853", rtol=1e-10, atol=1e-12,
                        dense_output=True)
        if not sol.success:
            raise RuntimeError(f"estimator reference failed: {sol.message}")
        inside = (t >= lo) & (t <= hi)
        out[inside] = sol.sol(t[inside]).T
        e = sol.y[:, -1]
    return out + theta
