"""Host-speed yardstick: a fixed piece of Python timed next to the workloads.

The host this benchmark was defined on changes speed by up to 3x over
seconds to minutes, with no other process of the benchmark's running; a
plain wall time then says more about the host than about gpebo.  The
yardstick is a small fixed-step RK4 integration of the benchmark plant
written the way gpebo's integrator is (a dataclass per stage, 2 x 2 numpy
products, list-backed history with bisect lookups), so a busy host slows
it in step with a pass.  It lives here, not in gpebo, so a change to gpebo
never changes it.  ``run.py`` scales each timing with :func:`to_reference`
by the yardstick samples taken just before and after it.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

# A fixed scale, not a calibration: the sample time of a host at the chosen
# reference speed.  On the 2-vCPU host of README.md's figures a sample took
# from 0.04 s to 0.08 s.
REFERENCE_S = 0.06
# How pass times follow the yardstick.  A log-log fit of 189 passes of the
# three workloads, each against the samples around it, gave slopes of 0.60
# to 0.77; such a fit reads low, since the yardstick's own noise flattens
# it.  Over 17 later runs the run medians spread least at 0.7 to 0.85 on
# gradient-sweep and at 1.0 or more on drem-track and pe-audit; 0.85 was
# the one value near the best on all three.
ELASTICITY = 0.85
STEPS = 1000
_B = np.array([0.0, 1.0])


@dataclass
class _State:
    x: np.ndarray
    Phi: np.ndarray


def _rate(t, state, past_t, past_x):
    s = math.sin(t)
    A = np.asarray(np.array([[0.0, 1.0], [-s * s, 0.0]]), dtype=float)
    lagged = past_x[bisect_right(past_t, 0.5 * t) - 1]
    return _State(A @ state.x + _B * s + 0.0 * lagged, A @ state.Phi)


def _offset(state, k, a):
    return _State(state.x + a * k.x, state.Phi + a * k.Phi)


def _integrate(h: float = 1e-3) -> _State:
    state = _State(np.array([1.0, -1.0]), np.eye(2))
    past_t, past_x = [0.0], [state.x]
    t = 0.0
    for _ in range(STEPS):
        k1 = _rate(t, state, past_t, past_x)
        k2 = _rate(t + 0.5 * h, _offset(state, k1, 0.5 * h), past_t, past_x)
        k3 = _rate(t + 0.5 * h, _offset(state, k2, 0.5 * h), past_t, past_x)
        k4 = _rate(t + h, _offset(state, k3, h), past_t, past_x)
        c = h / 6.0
        state = _State(state.x + c * (k1.x + 2.0 * (k2.x + k3.x) + k4.x),
                       state.Phi + c * (k1.Phi + 2.0 * (k2.Phi + k3.Phi) + k4.Phi))
        t += h
        past_t.append(t)
        past_x.append(state.x)
    return state


def to_reference(seconds: float, yardstick_s: float) -> float:
    """``seconds`` measured while a sample took ``yardstick_s``, scaled to
    a host whose sample takes ``REFERENCE_S``."""
    return seconds * (REFERENCE_S / yardstick_s) ** ELASTICITY


def sample() -> float:
    """Seconds one yardstick integration takes now."""
    start = time.perf_counter()
    _integrate()
    return time.perf_counter() - start
