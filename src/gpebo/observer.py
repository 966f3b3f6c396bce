"""Estimation-based observer: the gradient law on the delayed regression.

The observer integrates a copy of the plant,

    dxi/dt = A(t) xi + B(t) u(t),        dPhi/dt = A(t) Phi,   Phi(0) = I,

so the copy error xi - x equals Phi(t) theta with the constant vector
theta = xi(0) - x(0).  The delayed measurement then yields the linear
regression

    C(phi) xi(phi) - y(t) = C(phi) Phi(phi) theta,

whose unknown is theta.  A gradient law driven by this regression produces
theta_hat, and the state estimate is recovered algebraically as

    x_hat = xi - Phi theta_hat,

which ``SimulationResult.xhat`` forms at every node.  The regression itself
is built in one place, by :func:`gpebo.simulate`, which records it at every
node in ``SimulationResult.psi`` and ``y_reg``.
"""

from __future__ import annotations

import numpy as np

from .model import _finite


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
