"""Plant definitions, measurement delays, and built-in benchmark scenarios.

The plant class covered here is the linear time-varying system

    dx/dt = A(t) x + B(t) u(t),      y(t) = C(phi(t)) x(phi(t)),

where ``phi`` maps the current time to the (possibly delayed) time at which
the output was actually produced.  ``phi`` is always clamped into ``[0, t]``
so the measurement never refers to the future or to times before the run
started.

The callables take a whole grid at once: a 1-D float array of times in,
their values at those times stacked on axis 0 out, shape-checked by
:func:`at_times`.  The dataclasses here are the only validator of a run's
parameters: each rejects a bad value, naming it, when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .drem import default_ext_delays

GridFn = Callable[[np.ndarray], np.ndarray]  # 1-D times -> values stacked on axis 0

_DELAY_KINDS = ("identity", "constant", "sinusoidal", "custom")
_ESTIMATORS = ("gradient", "drem")
# Grid nodes one run may hold, and one CLI sweep summed over its gains.  A
# simulation peaks near 620 bytes per node (DREM; gradient 440) and keeps
# 112 bytes per node, and a sweep keeps every gain's run, so a sweep at the
# limit peaks near 1.25 GB (measured with tracemalloc on 30 s runs).
MAX_SWEEP_NODES = 2_000_000


def _finite_vector(name, value, n) -> np.ndarray:
    """``value`` as a float array of shape (n,) with finite entries."""
    vec = np.asarray(value, dtype=float)
    if vec.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{name} must be finite, got {vec}")
    return vec


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
        deterministic; returned arrays are treated as read-only.
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
        if self.n < 1 or self.m < 1 or self.q < 1:
            raise ValueError("dimensions n, m, q must be positive")
        object.__setattr__(self, "x0", _finite_vector("x0", self.x0, self.n))


def at_times(fn, times, shape: tuple, name: str) -> np.ndarray:
    """fn(times) for the 1-D float array ``times``: the values at every
    time, stacked on axis 0.

    The result must have exactly the shape ``(len(times),) + shape``, with
    nothing broadcast; a ``None`` in ``shape`` matches any length, shown
    as ``*``.  Otherwise a ValueError names ``name`` and both shapes.
    """
    values = np.asarray(fn(times), dtype=float)
    want = (len(times),) + shape
    if values.ndim != len(want) or any(w not in (None, v) for w, v in zip(want, values.shape)):
        shown = str(want).replace("None", "*")
        raise ValueError(f"{name} must return shape {shown}, got {values.shape}")
    return values


def eval_system(spec: SystemSpec, t: float):
    """(A, B, C, u) at time ``t``, shape-checked by :func:`at_times`."""
    n, m, q = spec.n, spec.m, spec.q
    times = np.array([float(t)])
    return tuple(at_times(fn, times, shape, name)[0] for fn, shape, name in (
        (spec.A, (n, n), "A(t)"), (spec.B, (n, m), "B(t)"),
        (spec.C, (q, n), "C(t)"), (spec.u, (m,), "u(t)")))


@dataclass(frozen=True)
class DelaySpec:
    """Measurement time map ``phi(t)``, clamped into ``[0, t]``.

    Built-in kinds:

    * ``identity``     phi(t) = t (no delay)
    * ``constant``     phi(t) = t - tau
    * ``sinusoidal``   phi(t) = t - (base + amplitude * sin(frequency * t))
    * ``custom``       phi(t) = fn(t)

    It takes an array of times to phi at each, in the same shape; so must ``fn``.
    """

    kind: str
    tau: float = 0.0
    base: float = 0.0
    amplitude: float = 0.0
    frequency: float = 0.0
    fn: Optional[GridFn] = None

    def __post_init__(self):
        if self.kind not in _DELAY_KINDS:
            raise ValueError(f"unknown delay kind {self.kind!r}")
        for name in ("tau", "base", "amplitude", "frequency"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"delay {name} must be finite, got {getattr(self, name)!r}")
        if self.kind == "constant" and self.tau < 0:
            raise ValueError("constant delay tau must be nonnegative")
        if self.kind == "custom" and self.fn is None:
            raise ValueError("custom delay requires fn")

    @classmethod
    def identity(cls) -> "DelaySpec":
        return cls(kind="identity")

    @classmethod
    def constant(cls, tau: float) -> "DelaySpec":
        return cls(kind="constant", tau=float(tau))

    @classmethod
    def sinusoidal(cls, base: float, amplitude: float, frequency: float) -> "DelaySpec":
        return cls(
            kind="sinusoidal",
            base=float(base),
            amplitude=float(amplitude),
            frequency=float(frequency),
        )

    @classmethod
    def custom(cls, fn) -> "DelaySpec":
        return cls(kind="custom", fn=fn)

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "identity":
            return t
        if self.kind == "constant":
            raw = t - self.tau
        elif self.kind == "sinusoidal":
            raw = t - (self.base + self.amplitude * np.sin(self.frequency * t))
        else:
            raw = np.asarray(self.fn(t), dtype=float)
            if raw.shape != t.shape:
                raise ValueError(f"delay fn must return the shape {t.shape} of its times, "
                                 f"got {raw.shape}")
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
    ``drem_delays`` holds the regressor-extension delays used when
    ``estimator == "drem"``; None selects :func:`default_ext_delays`,
    resolved here.  DREM needs a single-output plant and ``n - 1`` delays.

    Every parameter is checked when the scenario is built: a shape, a
    non-finite value or an out-of-range gain, step, horizon or delay
    raises ValueError naming it, before anything is simulated; so does a
    step so small that horizon / step overflows or that the grid holds
    more than ``MAX_SWEEP_NODES`` nodes.  :attr:`steps` is the grid's step
    count that every reader of the grid uses.
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
        if self.estimator not in _ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be nonnegative and finite, got {self.gamma!r}")
        for name in ("horizon", "step"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        if self.step > self.horizon:
            raise ValueError("step must not exceed horizon")
        # round(horizon / step) + 1 nodes, so this also refuses an overflow to inf
        if not self.horizon / self.step < MAX_SWEEP_NODES - 0.5:
            raise ValueError(f"horizon / step = {self.horizon / self.step!r} makes more than "
                             f"MAX_SWEEP_NODES = {MAX_SWEEP_NODES} grid nodes")
        n = self.system.n
        object.__setattr__(self, "xi0", _finite_vector("xi0", self.xi0, n))
        object.__setattr__(self, "theta_hat0", _finite_vector("theta_hat0", self.theta_hat0, n))
        delays = self.drem_delays
        if delays is None and self.estimator == "drem":
            delays = default_ext_delays(n)
        if delays is not None:
            d = tuple(float(v) for v in delays)
            if not all(0.0 < v < math.inf for v in d) or any(b <= a for a, b in zip(d, d[1:])):
                raise ValueError("drem_delays must be positive, finite and strictly increasing")
            object.__setattr__(self, "drem_delays", d)
        if self.estimator == "drem":
            if self.system.q != 1:
                raise ValueError("drem estimation supports single-output plants")
            if len(self.drem_delays) != n - 1:
                raise ValueError(f"drem needs {n - 1} drem_delays, got {len(self.drem_delays)}")

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


def benchmark_system(x0=None) -> SystemSpec:
    """Oscillator with state-dependent restoring gain sin(t)^2.

    A(t) = [[0, 1], [-sin(t)^2, 0]], B = [0, 1]^T, C = [1, 0], u(t) = sin(t).
    The position measurement is taken through whatever delay the enclosing
    scenario selects.
    """
    if x0 is None:
        x0 = np.array([1.0, -1.0])
    return SystemSpec(
        n=2, m=1, q=1, A=_bench_A, B=_bench_B, C=_bench_C, u=_bench_u, x0=x0
    )


_SCENARIO_DELAYS = {
    "c1": DelaySpec.identity,
    "c2": lambda: DelaySpec.constant(1.0),
    "c3": lambda: DelaySpec.sinusoidal(1.0, 0.9, 1.0),
}


def builtin_scenario(
    scenario_id: str,
    gamma: float,
    estimator: str = "gradient",
    horizon: float = 30.0,
    step: float = 1e-3,
    x0=None,
    xi0=None,
    theta_hat0=None,
    drem_delays=None,
) -> NamedScenario:
    """Benchmark scenario by id.

    c1: undelayed measurement, c2: constant delay tau = 1,
    c3: sinusoidal delay tau(t) = 1 + 0.9 sin(t).  All three share the
    oscillator plant from :func:`benchmark_system`.
    """
    key = scenario_id.lower()
    if key not in _SCENARIO_DELAYS:
        raise ValueError(f"unknown scenario id {scenario_id!r}; expected c1, c2 or c3")
    system = benchmark_system(x0=x0)
    if xi0 is None:
        xi0 = np.zeros(system.n)
    if theta_hat0 is None:
        theta_hat0 = np.zeros(system.n)
    return NamedScenario(
        id=key,
        system=system,
        delay=_SCENARIO_DELAYS[key](),
        gamma=float(gamma),
        estimator=estimator,
        horizon=float(horizon),
        step=float(step),
        xi0=xi0,
        theta_hat0=theta_hat0,
        drem_delays=drem_delays,
    )
