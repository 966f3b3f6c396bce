"""Plant definitions, measurement delays, and built-in benchmark scenarios.

The plant class covered here is the linear time-varying system

    dx/dt = A(t) x + B(t) u(t),      y(t) = C(phi(t)) x(phi(t)),

where ``phi`` maps the current time to the (possibly delayed) time at which
the output was actually produced.  ``phi`` is always clamped into ``[0, t]``
so the measurement never refers to the future or to times before the run
started.

The dataclasses here are the only validator of a run's parameters: each
rejects a bad value, naming it, when it is built.  The callables are
evaluated through :func:`at_times`, which checks the shape of every value
they return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .drem import default_ext_delays

MatrixFn = Callable[[float], np.ndarray]
VectorFn = Callable[[float], np.ndarray]

_DELAY_KINDS = ("identity", "constant", "sinusoidal", "custom")
_ESTIMATORS = ("gradient", "drem")
# at_times stacks this many values at once, and the plant pass and the
# Hermite lookups work this many steps or times at once, which bounds the
# size of their temporaries and with it a run's peak memory.
_BLOCK = 256


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
        Time-dependent coefficient matrices with shapes (n, n), (n, m),
        (q, n).  Callables must be deterministic; returned arrays are
        treated as read-only.
    u : callable
        Known input signal, shape (m,).
    x0 : ndarray
        Initial plant state, shape (n,).
    """

    n: int
    m: int
    q: int
    A: MatrixFn
    B: MatrixFn
    C: MatrixFn
    u: VectorFn
    x0: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.q < 1:
            raise ValueError("dimensions n, m, q must be positive")
        object.__setattr__(self, "x0", _finite_vector("x0", self.x0, self.n))


def eval_system(spec: SystemSpec, t: float):
    """Evaluate (A, B, C, u) at time ``t`` with shape checks.

    Raises ValueError when any callable returns an array whose shape is
    inconsistent with the declared dimensions.
    """
    A = np.asarray(spec.A(t), dtype=float)
    B = np.asarray(spec.B(t), dtype=float)
    C = np.asarray(spec.C(t), dtype=float)
    u = np.asarray(spec.u(t), dtype=float)
    n, m, q = spec.n, spec.m, spec.q
    if A.shape != (n, n):
        raise ValueError(f"A(t) must have shape ({n}, {n}), got {A.shape}")
    if B.shape != (n, m):
        raise ValueError(f"B(t) must have shape ({n}, {m}), got {B.shape}")
    if C.shape != (q, n):
        raise ValueError(f"C(t) must have shape ({q}, {n}), got {C.shape}")
    if u.shape != (m,):
        raise ValueError(f"u(t) must have shape ({m},), got {u.shape}")
    return A, B, C, u


def at_times(fn, times, shape: tuple, name: str) -> np.ndarray:
    """fn(s) for every s in the 1-D array ``times``, stacked on a new
    leading axis.

    Every value must have ``shape``; a ValueError names ``name`` and the
    first time whose value does not.  Values are stacked a block of times
    at a time: a list of one small array per time would hold tens of
    thousands of objects at once and raise a run's peak memory.
    """
    out = np.empty((len(times),) + shape)
    for lo in range(0, len(times), _BLOCK):
        block = times[lo:lo + _BLOCK].tolist()
        values = [fn(s) for s in block]
        try:
            stack = np.array(values, dtype=float)
        except ValueError:
            stack = None  # unequal shapes; a value that is no number raises below
        if stack is None or stack.shape[1:] != shape:
            for s, v in zip(block, values):
                if np.shape(v) != shape:
                    raise ValueError(f"{name} must have shape {shape}, got {np.shape(v)} "
                                     f"at t={s}")
            stack = np.array(values, dtype=float)
        out[lo:lo + len(block)] = stack
    return out


@dataclass(frozen=True)
class DelaySpec:
    """Measurement time map ``phi(t)``, clamped into ``[0, t]``.

    Built-in kinds:

    * ``identity``     phi(t) = t (no delay)
    * ``constant``     phi(t) = t - tau
    * ``sinusoidal``   phi(t) = t - (base + amplitude * sin(frequency * t))
    * ``custom``       phi(t) = fn(t)
    """

    kind: str
    tau: float = 0.0
    base: float = 0.0
    amplitude: float = 0.0
    frequency: float = 0.0
    fn: Optional[Callable[[float], float]] = None

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

    def _raw(self, t: float) -> float:
        if self.kind == "identity":
            return t
        if self.kind == "constant":
            return t - self.tau
        if self.kind == "sinusoidal":
            return t - (self.base + self.amplitude * math.sin(self.frequency * t))
        return float(self.fn(t))

    def __call__(self, t: float) -> float:
        if self.kind == "identity":
            return t
        raw = self._raw(t)
        if not math.isfinite(raw):
            raise ValueError(f"delay map is not finite at t={t}: phi(t) = {raw!r}")
        return max(0.0, min(t, raw))


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
    raises ValueError naming it, before anything is simulated.
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


_BENCH_B = np.array([[0.0], [1.0]])
_BENCH_C = np.array([[1.0, 0.0]])


def _bench_A(t: float) -> np.ndarray:
    s = math.sin(t)
    return np.array([[0.0, 1.0], [-s * s, 0.0]])


def _bench_B(t: float) -> np.ndarray:
    return _BENCH_B


def _bench_C(t: float) -> np.ndarray:
    return _BENCH_C


def _bench_u(t: float) -> np.ndarray:
    return np.array([math.sin(t)])


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
