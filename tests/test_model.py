"""Plant evaluation, delay maps, and built-in scenario construction."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gpebo import (
    DelaySpec,
    NamedScenario,
    SystemSpec,
    benchmark_system,
    builtin_scenario,
    eval_system,
    liouville_det,
    pe_check,
    simulate,
)


def test_identity_delay_passthrough():
    assert DelaySpec.identity()(5.0) == 5.0


def test_constant_delay():
    d = DelaySpec.constant(1.0)
    assert d(5.0) == 4.0


def test_constant_delay_clamped_at_start():
    d = DelaySpec.constant(1.0)
    assert d(0.5) == 0.0


def test_sinusoidal_delay_clamped():
    d = DelaySpec.sinusoidal(1.0, 0.9, 1.0)
    # at t = pi/2 the raw value is pi/2 - 1.9 < 0, so the clamp fires
    assert d(math.pi / 2) == 0.0


def test_sinusoidal_delay_unclamped_region():
    d = DelaySpec.sinusoidal(1.0, 0.9, 1.0)
    # raw lag stays in [0.1, 1.9], so no clamping once t >= 1.9
    for t in np.linspace(1.9, 30.0, 200):
        t = float(t)
        assert d(t) == t - (1.0 + 0.9 * math.sin(1.0 * t))


def test_delay_bounds_on_dense_grid():
    specs = [
        DelaySpec.identity(),
        DelaySpec.constant(0.0),
        DelaySpec.constant(2.5),
        DelaySpec.sinusoidal(1.0, 0.9, 1.0),
        DelaySpec.sinusoidal(0.5, 2.0, 3.0),
        DelaySpec.custom(lambda t: t - 2.5 + math.sin(3 * t)),
    ]
    grid = np.linspace(0.0, 100.0, 4001)
    for spec in specs:
        for t in grid:
            t = float(t)
            phi = spec(t)
            assert 0.0 <= phi <= t


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_delay_raises(value):
    spec = DelaySpec.custom(lambda t: value)
    with pytest.raises(ValueError, match="t=2.0"):
        spec(2.0)
    # the same map inside a run stops it rather than measuring undelayed
    scen = builtin_scenario("c1", 1.0, horizon=0.1)
    with pytest.raises(ValueError, match="not finite"):
        simulate(replace(scen, delay=spec))


def test_delay_validation():
    with pytest.raises(ValueError):
        DelaySpec.constant(-0.5)
    with pytest.raises(ValueError):
        DelaySpec(kind="weird")
    with pytest.raises(ValueError):
        DelaySpec(kind="custom")


def test_benchmark_system_at_zero():
    A, B, C, u = eval_system(benchmark_system(), 0.0)
    assert np.array_equal(A, np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(B, np.array([[0.0], [1.0]]))
    assert np.array_equal(C, np.array([[1.0, 0.0]]))
    assert u[0] == 0.0


def test_benchmark_system_at_quarter_period():
    A, _, _, _ = eval_system(benchmark_system(), math.pi / 2)
    assert np.array_equal(A, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_zero_system():
    spec = SystemSpec(
        n=2, m=1, q=1,
        A=lambda t: np.zeros((2, 2)),
        B=lambda t: np.zeros((2, 1)),
        C=lambda t: np.zeros((1, 2)),
        u=lambda t: np.zeros(1),
        x0=np.zeros(2),
    )
    A, B, C, u = eval_system(spec, 17.3)
    assert not A.any() and not B.any() and not C.any() and not u.any()


def test_eval_system_shape_mismatch():
    spec = SystemSpec(
        n=2, m=1, q=1,
        A=lambda t: np.zeros((2, 3)),
        B=lambda t: np.zeros((2, 1)),
        C=lambda t: np.zeros((1, 2)),
        u=lambda t: np.zeros(1),
        x0=np.zeros(2),
    )
    with pytest.raises(ValueError, match=r"A\(t\) must have shape \(2, 2\), got \(2, 3\) at t=0.0"):
        eval_system(spec, 0.0)


def test_builtin_scenario_delays():
    s1 = builtin_scenario("c1", 100.0, estimator="gradient")
    assert s1.delay.kind == "identity"
    s2 = builtin_scenario("c2", 10.0, estimator="drem")
    assert s2.delay.kind == "constant" and s2.delay.tau == 1.0
    assert s2.delay(0.4) == 0.0
    s3 = builtin_scenario("c3", 1.0)
    assert s3.delay.kind == "sinusoidal"
    assert (s3.delay.base, s3.delay.amplitude, s3.delay.frequency) == (1.0, 0.9, 1.0)


def test_builtin_scenario_defaults():
    s = builtin_scenario("c1", 100.0)
    assert np.array_equal(s.system.x0, np.array([1.0, -1.0]))
    assert np.array_equal(s.xi0, np.zeros(2))
    assert np.array_equal(s.theta_hat0, np.zeros(2))
    assert s.horizon == 30.0
    assert s.step == 1e-3
    assert s.system.u(1.0)[0] == math.sin(1.0)


def test_builtin_scenario_unknown_id():
    with pytest.raises(ValueError):
        builtin_scenario("c4", 1.0)


def test_builtin_scenario_case_insensitive():
    s = builtin_scenario("C2", 1.0)
    assert s.id == "c2"


def test_builtin_scenario_deterministic():
    a = builtin_scenario("c3", 10.0)
    b = builtin_scenario("c3", 10.0)
    assert a.id == b.id and a.gamma == b.gamma
    assert np.array_equal(a.system.x0, b.system.x0)
    for t in (0.0, 1.7, 12.9):
        assert np.array_equal(a.system.A(t), b.system.A(t))
        assert a.delay(t) == b.delay(t)


def _dummy_system(n=2):
    return SystemSpec(
        n=n, m=1, q=1,
        A=lambda t: np.zeros((n, n)),
        B=lambda t: np.zeros((n, 1)),
        C=lambda t: np.zeros((1, n)),
        u=lambda t: np.zeros(1),
        x0=np.zeros(n),
    )


def test_scenario_validation():
    sys2 = _dummy_system()
    ok = dict(system=sys2, delay=DelaySpec.identity(), estimator="gradient",
              horizon=1.0, step=1e-3, xi0=np.zeros(2), theta_hat0=np.zeros(2))
    NamedScenario(id="ok", gamma=0.0, **ok)  # zero gain is a valid diagnostic mode
    with pytest.raises(ValueError):
        NamedScenario(id="bad", gamma=-1.0, **ok)
    with pytest.raises(ValueError):
        NamedScenario(id="bad", gamma=1.0, **{**ok, "step": 0.0})
    with pytest.raises(ValueError):
        NamedScenario(id="bad", gamma=1.0, **{**ok, "horizon": -2.0})
    with pytest.raises(ValueError):
        NamedScenario(id="bad", gamma=1.0, **{**ok, "estimator": "secret"})
    with pytest.raises(ValueError):
        NamedScenario(id="bad", gamma=1.0, **{**ok, "xi0": np.zeros(3)})
    with pytest.raises(ValueError):
        NamedScenario(id="bad", gamma=1.0, **{**ok, "drem_delays": (0.5, 0.4)})


def test_system_spec_validation():
    with pytest.raises(ValueError):
        SystemSpec(n=0, m=1, q=1, A=lambda t: None, B=lambda t: None,
                   C=lambda t: None, u=lambda t: None, x0=np.zeros(0))
    with pytest.raises(ValueError):
        SystemSpec(n=2, m=1, q=1, A=lambda t: None, B=lambda t: None,
                   C=lambda t: None, u=lambda t: None, x0=np.zeros(3))


@pytest.mark.parametrize("kw, name", [
    (dict(horizon=math.inf), "horizon"),
    (dict(horizon=math.nan), "horizon"),
    (dict(step=math.inf), "step"),
    (dict(gamma=math.inf), "gamma"),
    (dict(gamma=math.nan), "gamma"),
    (dict(x0=[math.nan, 0.0]), "x0"),
    (dict(xi0=[0.0, math.inf]), "xi0"),
    (dict(theta_hat0=[-math.inf, 0.0]), "theta_hat0"),
    (dict(estimator="drem", drem_delays=(0.5, 1.0)), "drem_delays"),
    (dict(estimator="drem", drem_delays=(math.inf,)), "drem_delays"),
])
def test_builtin_scenario_rejects_bad_value_at_construction(kw, name):
    # each is rejected when the scenario is built, naming the parameter
    args = {"gamma": 10.0, **kw}
    with pytest.raises(ValueError, match=name):
        builtin_scenario("c1", args.pop("gamma"), **args)


def test_drem_scenario_resolves_default_delays():
    assert builtin_scenario("c2", 1.0, estimator="drem").drem_delays == (0.5,)
    assert builtin_scenario("c2", 1.0).drem_delays is None
    # a two-output plant cannot be mixed into scalar regressions
    sysm = replace(_dummy_system(), q=2, C=lambda t: np.zeros((2, 2)))
    with pytest.raises(ValueError, match="single-output"):
        NamedScenario(id="bad", system=sysm, delay=DelaySpec.identity(), gamma=1.0,
                      estimator="drem", horizon=1.0, step=1e-3, xi0=np.zeros(2),
                      theta_hat0=np.zeros(2))


@pytest.mark.parametrize("field", ["tau", "base", "amplitude", "frequency"])
def test_delay_rejects_non_finite_parameters(field):
    kind = "constant" if field == "tau" else "sinusoidal"
    with pytest.raises(ValueError, match=field):
        DelaySpec(kind=kind, **{field: math.nan})


def test_wrong_shaped_coefficient_fails_naming_the_time():
    # A(t) has the right shape at t = 0 only; stacking it into the run's
    # (n, n) slots used to broadcast the row and simulate a wrong x
    def A(t):
        return np.array([[0.0, 1.0], [-1.0, 0.0]]) if t == 0.0 else np.array([0.0, 1.0])

    sysm = replace(_dummy_system(), A=A)
    scen = NamedScenario(id="bad", system=sysm, delay=DelaySpec.identity(), gamma=0.0,
                         estimator="gradient", horizon=1.0, step=0.1, xi0=np.zeros(2),
                         theta_hat0=np.zeros(2))
    with pytest.raises(ValueError, match=r"A\(t\) must have shape \(2, 2\), got \(2,\) at t=0.05"):
        simulate(scen)
    res = simulate(builtin_scenario("c1", 0.0, horizon=1.0, step=0.1))
    with pytest.raises(ValueError, match=r"A\(t\) must have shape \(2, 2\), got \(3, 3\) at t=0.0"):
        liouville_det(res.phi_history(), lambda t: np.eye(3))
    with pytest.raises(ValueError, match=r"C\(t\) must have shape \(1, 2\), got \(2,\) at t=0.3"):
        pe_check(res.phi_history(), lambda t: np.ones(2) if t > 0.25 else np.ones((1, 2)),
                 0.5, 1e-4)


def test_grid_too_fine_to_count_fails_at_construction():
    # horizon / step overflows to inf: the scenario is refused when built,
    # rather than simulate failing on int(inf) with an OverflowError
    with pytest.raises(ValueError, match=r"horizon / step"):
        builtin_scenario("c1", 1.0, horizon=1e300, step=1e-300)


@pytest.mark.parametrize("horizon, step, steps", [(1.0, 0.3, 3), (1.0, 0.4, 2), (0.1, 0.1, 1),
                                                   (30.0, 1e-3, 30000)])
def test_step_count_is_the_grid_simulate_runs(horizon, step, steps):
    scen = builtin_scenario("c1", 0.0, horizon=horizon, step=step)
    assert scen.steps == steps
    assert len(simulate(scen).t) == steps + 1
