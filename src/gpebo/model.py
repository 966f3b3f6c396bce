"""Plant definitions, measurement delays, and built-in benchmark scenarios.

The plant class covered here is the linear time-varying system

    dx/dt = A(t) x + B(t) u(t),      y(t) = C(phi(t)) x(phi(t)),

where ``phi`` maps the current time to the (possibly delayed) time at which
the output was actually produced.  ``phi`` is always clamped into ``[0, t]``
so the measurement never refers to the future or to times before the run
started.

The callables take a whole grid at once: a 1-D float array of times in,
their values at those times stacked on axis 0 out, read by
:func:`at_times` alone, which refuses a wrong shape or a non-real value.
The dataclasses here are the only validator of a run's parameters: every
number passes one converter, ``_finite``, and a non-number, a wrong
shape, a non-finite or out-of-range value or a non-integer dimension
raises a ValueError starting with its name when it is built.  A
scenario takes no delay map but a :class:`DelaySpec`, which clamps.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

GridFn = Callable[[np.ndarray], np.ndarray]  # 1-D times -> values stacked on axis 0

_ESTIMATORS = ("gradient", "drem")
# Grid nodes one run may hold, and one CLI sweep summed over its gains.  A
# simulation peaks near 512 bytes per node with DREM and 392 with the
# gradient law, and keeps 112; a sweep keeps every gain's run, so one at
# the limit peaks near 1.0 GB (tracemalloc, 30 s gain-100 runs on c1, c3).
MAX_SWEEP_NODES = 2_000_000


def _finite(name, value, n=None, low=-np.inf, strict=False):
    """``value`` as a float, or given ``n`` an (n,) float array, if real,
    finite and >= ``low`` (> if ``strict``); anything else, a str, None, a
    ragged or complex value included, raises a ValueError starting with ``name``."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged sequence, refused below
        arr = np.asarray(None)
    if arr.dtype.kind not in "biuf" or arr.shape != (() if n is None else (n,)):
        want = "a real number" if n is None else f"real numbers of shape ({n},)"
        raise ValueError(f"{name} must be {want}, got {value!r}")
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {value!r}")
    if (arr <= low if strict else arr < low).any():
        raise ValueError(f"{name} must be {'>' if strict else '>='} {low:g}, got {value!r}")
    return float(arr) if n is None else arr


@dataclass(frozen=True)
class SystemSpec:
    """Time-varying linear plant with a delayed linear output map.

    Attributes
    ----------
    n, m, q : int
        State, input, and output dimensions.
    A, B, C : callable
        Time-dependent coefficient matrices.  Each takes a 1-D float array
        of N times and returns the N matrices stacked on axis 0, of shape
        (N, n, n), (N, n, m) and (N, q, n).  Callables must be
        deterministic and return real numbers; returned arrays are
        treated as read-only.
    u : callable
        Known input signal, taking N times to shape (N, m).
    x0 : ndarray
        Initial plant state, shape (n,).
    """

    n: int
    m: int
    q: int
    A: GridFn
    B: GridFn
    C: GridFn
    u: GridFn
    x0: np.ndarray

    def __post_init__(self):
        for name, dim in (("n", self.n), ("m", self.m), ("q", self.q)):
            if not isinstance(dim, numbers.Integral) or dim < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {dim!r}")
        for name in ("A", "B", "C", "u"):
            if not callable(getattr(self, name)):
                raise ValueError(f"{name} must be callable, got {getattr(self, name)!r}")
        object.__setattr__(self, "x0", _finite("x0", self.x0, self.n))


def _real(value, what: str) -> np.ndarray:
    """``value`` as a float array; a ragged or non-real one (complex, str,
    object) raises a ValueError starting with ``what``, e.g. ``"A(t) must return"``."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged sequence
        raise ValueError(f"{what} real numbers, got a ragged sequence") from None
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{what} real numbers, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def at_times(fn, times, shape: tuple, name: str) -> np.ndarray:
    """fn(times) for the 1-D float array ``times``: the values at every
    time, stacked on axis 0; the one reader of what a callable returns.

    The result must be real numbers of exactly the shape
    ``(len(times),) + shape``, with nothing broadcast; a ``None`` in
    ``shape`` matches any length, shown as ``*``.  Otherwise a ValueError
    names ``name``.
    """
    values = _real(fn(times), f"{name} must return")
    want = (len(times),) + shape
    if values.ndim != len(want) or any(w not in (None, v) for w, v in zip(want, values.shape)):
        shown = str(want).replace("None", "*")
        raise ValueError(f"{name} must return shape {shown}, got {values.shape}")
    return values


def eval_system(spec: SystemSpec, t: float):
    """(A, B, C, u) at time ``t``, read by :func:`at_times`."""
    n, m, q = spec.n, spec.m, spec.q
    times = np.array([float(t)])
    return tuple(at_times(fn, times, shape, name)[0] for fn, shape, name in (
        (spec.A, (n, n), "A(t)"), (spec.B, (n, m), "B(t)"),
        (spec.C, (q, n), "C(t)"), (spec.u, (m,), "u(t)")))


@dataclass(frozen=True, kw_only=True)
class DelaySpec:
    """Measurement time map ``phi(t)``, clamped into ``[0, t]``:

        phi(t) = clamp(t - (base + amplitude * sin(frequency * t)), 0, t),

    or ``clamp(fn(t), 0, t)`` for a custom map, which takes no other
    parameter.  The fields are keyword-only: ``DelaySpec()`` is no delay,
    ``DelaySpec(base=tau)`` a constant lag ``tau >= 0``.  It takes times of
    any shape to phi at each, in the same shape; ``fn``, read by
    :func:`at_times`, takes them as a 1-D array, like every callable.
    """

    base: float = 0.0
    amplitude: float = 0.0
    frequency: float = 0.0
    fn: Optional[GridFn] = None

    def __post_init__(self):
        for name, low in (("base", 0.0), ("amplitude", -np.inf), ("frequency", -np.inf)):
            object.__setattr__(self, name, _finite(f"delay {name}", getattr(self, name), low=low))
        plain = (self.base, self.amplitude, self.frequency) == (0.0, 0.0, 0.0)
        if self.fn is not None and not (callable(self.fn) and plain):
            raise ValueError(f"delay fn {self.fn!r} must be callable and take no other parameter")

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.fn is not None:
            raw = at_times(self.fn, t.ravel(), (), "delay fn").reshape(t.shape)
        else:
            raw = t - (self.base + self.amplitude * np.sin(self.frequency * t))
        if not np.isfinite(raw).all():
            k = np.flatnonzero(~np.isfinite(raw))[0]
            raise ValueError(f"delay map is not finite at t={float(t.flat[k])}: "
                             f"phi(t) = {float(raw.flat[k])!r}")
        # max(0, min(t, raw)), keeping the first argument on a tie
        raw = np.where(raw < t, raw, t)
        return np.where(raw > 0.0, raw, 0.0)


@dataclass(frozen=True)
class NamedScenario:
    """Complete, reproducible description of one simulation run.

    ``gamma`` is the scalar adaptation gain; zero is allowed and freezes
    the parameter estimate, which is useful for open-loop diagnostics.
    ``drem_delays`` holds the DREM law's regressor-extension delays; None
    selects the ``n - 1`` lags ``0.5 i``, resolved here.  DREM needs a
    single-output plant and ``n - 1`` delays; a gradient scenario takes none.

    Every parameter is checked when the scenario is built: a member of the
    wrong class, a non-number, a shape, a non-finite value or an
    out-of-range gain, step, horizon or delay raises ValueError naming it,
    before anything is simulated; so does a step so small that horizon /
    step overflows or that the grid holds more than ``MAX_SWEEP_NODES``
    nodes.  :attr:`steps` is the grid's step count every reader uses.
    """

    id: str
    system: SystemSpec
    delay: DelaySpec
    gamma: float
    estimator: str
    horizon: float
    step: float
    xi0: np.ndarray
    theta_hat0: np.ndarray
    drem_delays: Optional[tuple] = None

    def __post_init__(self):
        for name, kind in (("system", SystemSpec), ("delay", DelaySpec)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        if self.estimator not in _ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        for name in ("gamma", "horizon", "step"):
            value = _finite(name, getattr(self, name), low=0.0, strict=name != "gamma")
            object.__setattr__(self, name, value)
        if self.step > self.horizon:
            raise ValueError("step must not exceed horizon")
        # round(horizon / step) + 1 nodes, so this also refuses an overflow to inf
        if not self.horizon / self.step < MAX_SWEEP_NODES - 0.5:
            raise ValueError(f"horizon / step = {self.horizon / self.step!r} makes more than "
                             f"MAX_SWEEP_NODES = {MAX_SWEEP_NODES} grid nodes")
        n = self.system.n
        object.__setattr__(self, "xi0", _finite("xi0", self.xi0, n))
        object.__setattr__(self, "theta_hat0", _finite("theta_hat0", self.theta_hat0, n))
        if self.estimator == "gradient":
            if self.drem_delays is not None:
                raise ValueError("drem_delays are for the drem estimator; gradient takes none")
            return
        d = tuple(0.5 * i for i in range(1, n)) if self.drem_delays is None else self.drem_delays
        d = _finite("drem_delays", d, n - 1, low=0.0, strict=True)
        if (d[1:] <= d[:-1]).any():
            raise ValueError(f"drem_delays must be strictly increasing, got {tuple(d.tolist())}")
        if self.system.q != 1:
            raise ValueError("drem estimation supports single-output plants")
        object.__setattr__(self, "drem_delays", tuple(d.tolist()))

    @property
    def steps(self) -> int:
        """Steps of the run's grid t_k = k * step: the horizon rounded to
        the nearest whole number of steps, at least 1 as step <= horizon."""
        return round(self.horizon / self.step)


_BENCH_B = np.array([[0.0], [1.0]])
_BENCH_C = np.array([[1.0, 0.0]])


def _bench_A(t: np.ndarray) -> np.ndarray:
    s = np.sin(t)
    A = np.zeros((len(t), 2, 2))
    A[:, 0, 1] = 1.0
    A[:, 1, 0] = -s * s
    return A


def _bench_B(t: np.ndarray) -> np.ndarray:
    return np.broadcast_to(_BENCH_B, (len(t),) + _BENCH_B.shape)


def _bench_C(t: np.ndarray) -> np.ndarray:
    return np.broadcast_to(_BENCH_C, (len(t),) + _BENCH_C.shape)


def _bench_u(t: np.ndarray) -> np.ndarray:
    return np.sin(t)[:, None]


_SCENARIO_DELAYS = {
    "c1": DelaySpec(),
    "c2": DelaySpec(base=1.0),
    "c3": DelaySpec(base=1.0, amplitude=0.9, frequency=1.0),
}


def builtin_scenario(scenario_id: str, gamma: float, estimator: str = "gradient",
                     horizon: float = 30.0, step: float = 1e-3, x0=None, xi0=None,
                     theta_hat0=None, drem_delays=None) -> NamedScenario:
    """Benchmark scenario by id, the one constructor of the benchmark plant.

    All three share an oscillator with restoring gain sin(t)^2:
    A(t) = [[0, 1], [-sin(t)^2, 0]], B = [0, 1]^T, C = [1, 0],
    u(t) = sin(t), x0 = (1, -1) unless given.  Its position is measured
    through c1: no delay, c2: a constant delay tau = 1, or c3: a
    sinusoidal delay tau(t) = 1 + 0.9 sin(t).
    """
    key = str(scenario_id).lower()
    if key not in _SCENARIO_DELAYS:
        raise ValueError(f"unknown scenario id {scenario_id!r}; expected c1, c2 or c3")
    system = SystemSpec(n=2, m=1, q=1, A=_bench_A, B=_bench_B, C=_bench_C, u=_bench_u,
                        x0=np.array([1.0, -1.0]) if x0 is None else x0)
    return NamedScenario(
        id=key, system=system, delay=_SCENARIO_DELAYS[key], gamma=gamma, estimator=estimator,
        horizon=horizon, step=step, xi0=np.zeros(2) if xi0 is None else xi0,
        theta_hat0=np.zeros(2) if theta_hat0 is None else theta_hat0, drem_delays=drem_delays)
