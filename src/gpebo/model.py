"""Plant definitions, measurement delays, and built-in benchmark scenarios.

The plant class covered here is the linear time-varying system

    dx/dt = A(t) x + B(t) u(t),      y(t) = C(phi(t)) x(phi(t)),

where ``phi`` maps the current time to the (possibly delayed) time at which
the output was actually produced.  ``phi`` is always clamped into ``[0, t]``
so the measurement never refers to the future or to times before the run
started.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

MatrixFn = Callable[[float], np.ndarray]
VectorFn = Callable[[float], np.ndarray]

_DELAY_KINDS = ("identity", "constant", "sinusoidal", "custom")
_ESTIMATORS = ("gradient", "drem")


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
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (self.n,):
            raise ValueError(f"x0 must have shape ({self.n},), got {x0.shape}")
        object.__setattr__(self, "x0", x0)


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


def at_times(fn, times, shape) -> np.ndarray:
    """fn(s) for every s in the 1-D array ``times``, stacked on a new
    leading axis.

    Filled in place: a list of one small array per time would hold tens of
    thousands of objects at once and raise a run's peak memory.
    """
    out = np.empty((len(times),) + tuple(shape))
    for j, s in enumerate(times.tolist()):
        out[j] = fn(s)
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


def eval_delay(spec: DelaySpec, t: float) -> float:
    """Clamped measurement time ``phi(t)``."""
    return spec(t)


@dataclass(frozen=True)
class NamedScenario:
    """Complete, reproducible description of one simulation run.

    ``gamma`` is the scalar adaptation gain; zero is allowed and freezes
    the parameter estimate, which is useful for open-loop diagnostics.
    ``drem_delays`` holds the regressor-extension delays used when
    ``estimator == "drem"``; None selects the built-in default spacing.
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
        if not self.gamma >= 0.0:
            raise ValueError("gamma must be nonnegative")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if self.step > self.horizon:
            raise ValueError("step must not exceed horizon")
        n = self.system.n
        xi0 = np.asarray(self.xi0, dtype=float)
        th0 = np.asarray(self.theta_hat0, dtype=float)
        if xi0.shape != (n,):
            raise ValueError(f"xi0 must have shape ({n},), got {xi0.shape}")
        if th0.shape != (n,):
            raise ValueError(f"theta_hat0 must have shape ({n},), got {th0.shape}")
        object.__setattr__(self, "xi0", xi0)
        object.__setattr__(self, "theta_hat0", th0)
        if self.drem_delays is not None:
            d = tuple(float(v) for v in self.drem_delays)
            if any(v <= 0 for v in d) or any(b <= a for a, b in zip(d, d[1:])):
                raise ValueError("drem_delays must be positive and strictly increasing")
            object.__setattr__(self, "drem_delays", d)


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
