"""Estimation-based observer: the regression sample, the gradient law and
state reconstruction.

The observer integrates a copy of the plant,

    dxi/dt = A(t) xi + B(t) u(t),        dPhi/dt = A(t) Phi,   Phi(0) = I,

so the copy error xi - x equals Phi(t) theta with the constant vector
theta = xi(0) - x(0).  The delayed measurement then yields the linear
regression

    C(phi) xi(phi) - y(t) = C(phi) Phi(phi) theta,

whose unknown is theta.  A gradient law driven by this regression produces
theta_hat, and the state estimate is recovered algebraically as

    x_hat = xi - Phi theta_hat.

The regression itself is built in one place, by :func:`gpebo.simulate`,
which records it at every node in ``SimulationResult.psi`` and ``y_reg``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RegressionSample:
    """One regression data point: y_reg = psi . theta.

    For single-output plants ``psi`` has shape (n,) and ``y_reg`` is a
    scalar; for q outputs ``psi`` is (n, q) and ``y_reg`` is (q,).
    """

    t: float
    psi: np.ndarray
    y_reg: float | np.ndarray


@dataclass(frozen=True)
class GainSpec:
    """Symmetric positive definite adaptation gain matrix."""

    Gamma: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.Gamma, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError("Gamma must be a square matrix")
        if not np.allclose(G, G.T, atol=1e-12):
            raise ValueError("Gamma must be symmetric")
        if np.linalg.eigvalsh(G).min() <= 0.0:
            raise ValueError("Gamma must be positive definite")
        object.__setattr__(self, "Gamma", G)

    @classmethod
    def scaled(cls, gamma: float, n: int) -> "GainSpec":
        """gamma * I with gamma > 0."""
        if not gamma > 0.0:
            raise ValueError("gamma must be positive")
        return cls(Gamma=float(gamma) * np.eye(n))


def gradient_update(sample: RegressionSample, theta_hat: np.ndarray, gain: GainSpec) -> np.ndarray:
    """Rate of change of theta_hat under the gradient law.

    d(theta_hat)/dt = Gamma psi (y_reg - psi . theta_hat); along this flow
    the weighted error (theta_hat - theta)^T Gamma^-1 (theta_hat - theta)
    never increases.
    """
    psi = sample.psi
    if psi.ndim == 1:
        resid = sample.y_reg - psi @ theta_hat
        return (gain.Gamma @ psi) * resid
    resid = sample.y_reg - psi.T @ theta_hat
    return gain.Gamma @ (psi @ resid)


def reconstruct(xi: np.ndarray, Phi: np.ndarray, theta_hat: np.ndarray) -> np.ndarray:
    """State estimate x_hat = xi - Phi theta_hat."""
    return xi - Phi @ theta_hat
