"""Trajectory storage on arrays with linear interpolation.

A history holds the samples of one signal at strictly increasing node
times, as a 1-D array of times and an array of values stacked on axis 0;
``as_arrays()`` is the one way to read them back.
Queries between nodes are linearly interpolated and queries at a stored
node return the stored value unchanged.
"""

from __future__ import annotations

import numpy as np

from .model import _finite, _real


class TrajectoryHistory:
    """Time-indexed record of array-valued samples of one fixed shape."""

    __slots__ = ("_times", "_values")

    def __init__(self):
        self._times = np.empty(0)
        self._values = None

    @classmethod
    def from_grid(cls, times, values) -> "TrajectoryHistory":
        """Build a history on aligned time and value arrays, without copying.

        ``values[k]`` is the sample at ``times[k]``; the leading axis of
        ``values`` must match ``len(times)`` and the times must increase.
        """
        times = _real(times, "times must be")
        values = _real(values, "values must be")
        if times.ndim != 1 or values.shape[:1] != times.shape:
            raise ValueError("times and values must align on the leading axis")
        if not (np.isfinite(times).all() and np.all(np.diff(times) > 0.0)):
            raise ValueError("times must be finite and strictly increasing")
        hist = cls()
        if len(times):
            hist._times, hist._values = times, values
        return hist

    def append(self, t: float, value) -> None:
        """Record ``value`` at time ``t``; ``t`` must exceed the latest node."""
        t = _finite("t", t)
        value = _real(value, "value must be")
        if self._values is None:
            self._times = np.array([t])
            self._values = value[None].copy()
            return
        if value.shape != self._values.shape[1:]:
            raise ValueError(
                f"sample shape {value.shape} does not match history shape "
                f"{self._values.shape[1:]}"
            )
        if not t > self._times[-1]:
            raise ValueError(f"append time {t} is not after latest node {self._times[-1]}")
        self._times = np.append(self._times, t)
        self._values = np.concatenate([self._values, value[None]])

    def sample(self, t) -> np.ndarray:
        """Values at the times ``t``, of any shape, as ``t.shape + value_shape``:
        linear between stored nodes, the stored value at a node."""
        times, values = self.as_arrays()
        s = _real(t, "t must be").ravel()
        inside = (s >= times[0]) & (s <= times[-1])
        if not inside.all():
            raise ValueError(
                f"query time {s[~inside][0]} outside recorded range [{times[0]}, {times[-1]}]"
            )
        i = np.searchsorted(times, s, side="right") - 1
        out = values[i]  # on-node queries keep the stored value
        off = np.flatnonzero(s != times[i])  # strictly between nodes i and i + 1
        if off.size:
            k = i[off]
            w = (s[off] - times[k]) / (times[k + 1] - times[k])
            v0 = out[off]
            out[off] = v0 + (values[k + 1] - v0) * w.reshape((-1,) + (1,) * (v0.ndim - 1))
        return out.reshape(np.shape(t) + values.shape[1:])[()]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored ``(times, values)`` arrays; values stack on axis 0.
        Treat both as read-only."""
        if self._values is None:
            raise ValueError("history is empty")
        return self._times, self._values
