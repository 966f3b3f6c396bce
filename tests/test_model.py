"""Plant evaluation, delay maps, and built-in scenario construction."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gpebo import (
    DelaySpec,
    NamedScenario,
    SystemSpec,
    builtin_scenario,
    delayed_pe_integral,
    eval_system,
    liouville_det,
    pe_check,
    pe_integral,
    simulate,
)
from gpebo.model import MAX_SWEEP_NODES


def test_identity_delay_passthrough():
    assert DelaySpec()(5.0) == 5.0
    # clamped into [0, t] like every other map
    assert DelaySpec()(-1.0) == 0.0


def test_constant_delay():
    d = DelaySpec(base=1.0)
    assert d(5.0) == 4.0


def test_constant_delay_clamped_at_start():
    d = DelaySpec(base=1.0)
    assert d(0.5) == 0.0


def test_sinusoidal_delay_clamped():
    d = DelaySpec(base=1.0, amplitude=0.9, frequency=1.0)
    # at t = pi/2 the raw value is pi/2 - 1.9 < 0, so the clamp fires
    assert d(math.pi / 2) == 0.0


def test_sinusoidal_delay_unclamped_region():
    d = DelaySpec(base=1.0, amplitude=0.9, frequency=1.0)
    # raw lag stays in [0.1, 1.9], so no clamping once t >= 1.9
    for t in np.linspace(1.9, 30.0, 200):
        t = float(t)
        assert d(t) == t - (1.0 + 0.9 * math.sin(1.0 * t))


def test_delay_bounds_on_dense_grid():
    specs = [
        DelaySpec(),
        DelaySpec(base=0.0),
        DelaySpec(base=2.5),
        DelaySpec(base=1.0, amplitude=0.9, frequency=1.0),
        DelaySpec(base=0.5, amplitude=2.0, frequency=3.0),
        DelaySpec(fn=lambda t: t - 2.5 + np.sin(3 * t)),
    ]
    grid = np.linspace(0.0, 100.0, 4001)
    for spec in specs:
        for t in grid:
            t = float(t)
            phi = spec(t)
            assert 0.0 <= phi <= t


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_delay_raises(value):
    spec = DelaySpec(fn=lambda t: np.full_like(t, value))
    with pytest.raises(ValueError, match="t=2.0"):
        spec(np.array([2.0, 3.0]))
    # the same map inside a run stops it rather than measuring undelayed
    scen = builtin_scenario("c1", 1.0, horizon=0.1)
    with pytest.raises(ValueError, match="not finite"):
        simulate(replace(scen, delay=spec))


def test_delay_validation():
    with pytest.raises(ValueError, match="base"):
        DelaySpec(base=-0.5)
    # keyword-only: a map cannot land in base
    with pytest.raises(TypeError):
        DelaySpec(lambda t: t)
    with pytest.raises(ValueError):
        DelaySpec(base=1.0, fn=lambda t: t)
    with pytest.raises(ValueError, match="callable"):
        DelaySpec(fn=3.0)
    with pytest.raises(ValueError, match="^delay base must be a real number, got '1'$"):
        DelaySpec(base="1")
    # complex query times are refused by name, not read with their
    # imaginary parts dropped
    for spec in (DelaySpec(base=0.5), DelaySpec(fn=lambda t: t - 0.5)):
        with pytest.raises(ValueError, match="^t must be real numbers, got dtype complex128$"):
            spec(np.array([2.0 + 1j]))


def test_benchmark_system_at_zero():
    A, B, C, u = eval_system(builtin_scenario("c1", 0.0).system, 0.0)
    assert np.array_equal(A, np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(B, np.array([[0.0], [1.0]]))
    assert np.array_equal(C, np.array([[1.0, 0.0]]))
    assert u[0] == 0.0


def test_benchmark_system_at_quarter_period():
    A, _, _, _ = eval_system(builtin_scenario("c1", 0.0).system, math.pi / 2)
    assert np.array_equal(A, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_zero_system():
    spec = SystemSpec(
        n=2, m=1, q=1,
        A=lambda t: np.zeros(t.shape + (2, 2)),
        B=lambda t: np.zeros(t.shape + (2, 1)),
        C=lambda t: np.zeros(t.shape + (1, 2)),
        u=lambda t: np.zeros(t.shape + (1,)),
        x0=np.zeros(2),
    )
    A, B, C, u = eval_system(spec, 17.3)
    assert not A.any() and not B.any() and not C.any() and not u.any()


def test_eval_system_shape_mismatch():
    spec = SystemSpec(
        n=2, m=1, q=1,
        A=lambda t: np.zeros(t.shape + (2, 3)),
        B=lambda t: np.zeros(t.shape + (2, 1)),
        C=lambda t: np.zeros(t.shape + (1, 2)),
        u=lambda t: np.zeros(t.shape + (1,)),
        x0=np.zeros(2),
    )
    with pytest.raises(ValueError, match=r"A\(t\) must return shape \(1, 2, 2\), got \(1, 2, 3\)"):
        eval_system(spec, 0.0)


def test_builtin_scenario_delays():
    s1 = builtin_scenario("c1", 100.0, estimator="gradient")
    assert s1.delay == DelaySpec() == DelaySpec(base=0.0, amplitude=0.0, frequency=0.0, fn=None)
    s2 = builtin_scenario("c2", 10.0, estimator="drem")
    assert s2.delay == DelaySpec(base=1.0, amplitude=0.0, frequency=0.0, fn=None)
    assert s2.delay(0.4) == 0.0
    s3 = builtin_scenario("c3", 1.0)
    assert s3.delay == DelaySpec(base=1.0, amplitude=0.9, frequency=1.0, fn=None)


def test_builtin_scenario_defaults():
    s = builtin_scenario("c1", 100.0)
    assert np.array_equal(s.system.x0, np.array([1.0, -1.0]))
    assert np.array_equal(s.xi0, np.zeros(2))
    assert np.array_equal(s.theta_hat0, np.zeros(2))
    assert s.horizon == 30.0
    assert s.step == 1e-3
    assert s.system.u(np.array([1.0]))[0, 0] == math.sin(1.0)


def test_builtin_scenario_unknown_id():
    with pytest.raises(ValueError):
        builtin_scenario("c4", 1.0)
    with pytest.raises(ValueError, match="^unknown scenario id None"):
        builtin_scenario(None, 1.0)


def test_builtin_scenario_case_insensitive():
    s = builtin_scenario("C2", 1.0)
    assert s.id == "c2"


def test_builtin_scenario_deterministic():
    a = builtin_scenario("c3", 10.0)
    b = builtin_scenario("c3", 10.0)
    assert a.id == b.id and a.gamma == b.gamma
    assert np.array_equal(a.system.x0, b.system.x0)
    t = np.array([0.0, 1.7, 12.9])
    assert np.array_equal(a.system.A(t), b.system.A(t))
    assert np.array_equal(a.delay(t), b.delay(t))


def _dummy_system(n=2):
    return SystemSpec(
        n=n, m=1, q=1,
        A=lambda t: np.zeros(t.shape + (n, n)),
        B=lambda t: np.zeros(t.shape + (n, 1)),
        C=lambda t: np.zeros(t.shape + (1, n)),
        u=lambda t: np.zeros(t.shape + (1,)),
        x0=np.zeros(n),
    )


def test_scenario_validation():
    sys2 = _dummy_system()
    ok = dict(system=sys2, delay=DelaySpec(), estimator="gradient",
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
    # only a SystemSpec and a DelaySpec, which clamps, reach a run: a plain
    # map reading before t = 0 or past t would be looked up off the grid
    scen = builtin_scenario("c1", 10.0, horizon=3.0)
    for name, bad in (("system", "x"), ("delay", "x"), ("delay", lambda t: t - 5.0),
                      ("delay", lambda t: t + 0.5)):
        with pytest.raises(ValueError, match=f"^{name} must be a "):
            replace(scen, **{name: bad})
    # a one-element gain would reach the run's "gamma {gamma:g}" label
    with pytest.raises(ValueError, match=r"^gamma must be a real number, got array\(\[10\.\]\)"):
        replace(scen, gamma=np.array([10.0]))


def test_system_spec_validation():
    with pytest.raises(ValueError):
        SystemSpec(n=0, m=1, q=1, A=lambda t: None, B=lambda t: None,
                   C=lambda t: None, u=lambda t: None, x0=np.zeros(0))
    with pytest.raises(ValueError):
        SystemSpec(n=2, m=1, q=1, A=lambda t: None, B=lambda t: None,
                   C=lambda t: None, u=lambda t: None, x0=np.zeros(3))
    for name in ("A", "B", "C", "u"):
        with pytest.raises(ValueError, match=f"^{name} must be callable"):
            replace(_dummy_system(), **{name: None})
    # a dimension must be an integer: 2.0 would fail later inside np.eye
    for bad in (2.0, "2"):
        with pytest.raises(ValueError, match="^n must be an integer >= 1"):
            replace(_dummy_system(), n=bad)


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
    (dict(drem_delays=(0.5,)), "drem_delays"),
    (dict(estimator="drem", drem_delays=0.5), "^drem_delays must be real numbers of shape"),
    (dict(estimator="drem", drem_delays=("a",)), "^drem_delays must be real numbers of shape"),
    (dict(gamma="1"), "^gamma must be a real number"),
    (dict(horizon=None), "^horizon must be a real number"),
    (dict(xi0="ab"), "^xi0 must be real numbers of shape"),
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
    sysm = replace(_dummy_system(), q=2, C=lambda t: np.zeros(t.shape + (2, 2)))
    with pytest.raises(ValueError, match="single-output"):
        NamedScenario(id="bad", system=sysm, delay=DelaySpec(), gamma=1.0,
                      estimator="drem", horizon=1.0, step=1e-3, xi0=np.zeros(2),
                      theta_hat0=np.zeros(2))


@pytest.mark.parametrize("field", ["tau", "base", "amplitude", "frequency"])
def test_delay_rejects_non_finite_parameters(field):
    # a constant lag tau is the base field: DelaySpec(base=tau)
    with pytest.raises(ValueError, match="base" if field == "tau" else field):
        DelaySpec(**{"base" if field == "tau" else field: math.nan})


def test_wrong_shaped_coefficient_fails_naming_the_time():
    # an A that is not (N, 2, 2) on N times, a scalar-style single matrix
    # among them, would broadcast into the run's (n, n) slots and simulate
    # a wrong x: it is refused naming A(t) and both shapes
    for value, got in ((lambda t: np.array([0.0, 1.0]), r"\(2,\)"),
                       (lambda t: np.array([[0.0, 1.0], [-1.0, 0.0]]), r"\(2, 2\)"),
                       (lambda t: np.zeros(t.shape + (2,)), r"\(21, 2\)")):
        sysm = replace(_dummy_system(), A=value)
        scen = NamedScenario(id="bad", system=sysm, delay=DelaySpec(), gamma=0.0,
                             estimator="gradient", horizon=1.0, step=0.1, xi0=np.zeros(2),
                             theta_hat0=np.zeros(2))
        results = []
        with pytest.raises(ValueError, match=r"A\(t\) must return shape \(21, 2, 2\), got " + got):
            results.append(simulate(scen))
        assert results == []
    # a custom delay map that returns one value for the whole grid
    scen = replace(scen, system=_dummy_system(), delay=DelaySpec(fn=lambda t: 0.0))
    with pytest.raises(ValueError, match=r"^delay fn must return shape \(11,\), got \(\)$"):
        simulate(scen)
    res = simulate(builtin_scenario("c1", 0.0, horizon=1.0, step=0.1))
    with pytest.raises(ValueError, match=r"A\(t\) must return shape \(11, 2, 2\), got \(11, 3, 3\)"):
        liouville_det(res.phi_history(), lambda t: np.tile(np.eye(3), (len(t), 1, 1)))
    # pe_check evaluates C once: at the 9 nodes inside its 11 windows and their 22 ends
    with pytest.raises(ValueError, match=r"C\(t\) must return shape \(31, \*, 2\), got \(31, 2\)"):
        pe_check(res.phi_history(), lambda t: np.ones((len(t), 2)), 0.5, 1e-4)
    # a C with no rows is no output at all, not an unexcited one: the
    # Gramians used to come back as zeros and pe_check to fail inside numpy
    # (one window of [0, 0.5] reads its 4 inner nodes and 2 ends)
    def no_rows(t):
        return np.zeros((len(t), 0, 2))

    for check, got in ((lambda: pe_check(res.phi_history(), no_rows, 0.5, 1e-4), 31),
                       (lambda: pe_integral(res.phi_history(), no_rows, 0.0, 0.5), 6),
                       (lambda: delayed_pe_integral(res.phi_history(), no_rows, 0.0, 0.5,
                                                    DelaySpec()), 6)):
        with pytest.raises(ValueError, match=rf"^C\(t\) must return shape \({got}, \*, 2\), "
                                             rf"got \({got}, 0, 2\)$"):
            check()


def test_non_real_or_ragged_return_fails_naming_the_callable():
    # a complex, string or ragged return from A, B, C, u or a custom delay
    # map is refused naming it, before any of it reaches the run; a complex
    # A used to run to the end with its imaginary part dropped
    scen = builtin_scenario("c1", 1.0, horizon=0.1, step=0.01)
    sysm = scen.system
    bad = {"complex": lambda fn: lambda t: fn(t) + 1e-3j,
           "string": lambda fn: lambda t: np.asarray(fn(t)).astype(str),
           "ragged": lambda fn: lambda t: [fn(t[:1])[0], fn(t[:2])]}
    got = {"complex": "dtype complex128", "string": r"dtype <U\d+", "ragged": "a ragged sequence"}
    for kind, wrap in bad.items():
        for name in ("A", "B", "C", "u"):
            broken = replace(scen, system=replace(sysm, **{name: wrap(getattr(sysm, name))}))
            with pytest.raises(ValueError, match=rf"^{name}\(t\) must return real numbers, "
                                                 rf"got {got[kind]}$"):
                simulate(broken)
        custom = DelaySpec(fn=wrap(lambda t: t - 0.05))
        for call in (lambda: simulate(replace(scen, delay=custom)),
                     lambda: custom(np.array([1.0, 2.0]))):
            with pytest.raises(ValueError, match=rf"^delay fn must return real numbers, "
                                                 rf"got {got[kind]}$"):
                call()


def test_custom_delay_map_takes_a_flat_array():
    # fn sees every query as a 1-D array, like A, B, C and u; the result
    # takes the query's shape, a scalar one included
    seen = []
    delay = DelaySpec(fn=lambda t: seen.append(t.shape) or t - 1.0)
    assert delay(5.0) == 4.0 and np.shape(delay(5.0)) == ()
    grid = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(delay(grid), np.maximum(grid - 1.0, 0.0))
    assert seen == [(1,), (1,), (6,)]
    assert DelaySpec()(5.0) == 5.0


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


def test_grid_over_the_node_limit_fails_at_construction(monkeypatch):
    # 1e10 steps would ask simulate for hundreds of GB: the scenario is
    # refused when built, so nothing is simulated or allocated
    import gpebo.integrate

    def refuse(scenario):
        raise AssertionError("simulated an oversized grid")

    monkeypatch.setattr(gpebo.integrate, "simulate", refuse)
    with pytest.raises(ValueError, match="grid nodes"):
        gpebo.integrate.simulate(builtin_scenario("c1", 1.0, horizon=1e7))
    # the limit counts nodes, t = 0 included
    steps = MAX_SWEEP_NODES - 1
    assert builtin_scenario("c1", 1.0, horizon=float(steps), step=1.0).steps == steps
    with pytest.raises(ValueError, match="grid nodes"):
        builtin_scenario("c1", 1.0, horizon=float(steps + 1), step=1.0)


def _scalar_delay(kind, t):
    """The built-in delay maps one time at a time, as written in DelaySpec's
    docstring, clamped into [0, t]."""
    raw = {"identity": t, "constant": t - 1.0,
           "sinusoidal": t - (1.0 + 0.9 * math.sin(1.0 * t)),
           "formula": t - (1.0 + 0.5 * math.sin(2.0 * t)),
           "custom": t - 1.0 - 0.9 * math.sin(t)}[kind]
    return max(0.0, min(t, raw))


def test_builtins_equal_scalar_formulas_on_the_stage_grid():
    # every time of a default 30 s run's stage grid, clamp stretches of the
    # constant and sinusoidal delays included: the whole-grid built-ins
    # return the same doubles as scalar math formulas, sign of zero included
    tau = 0.5e-3 * np.arange(60001)
    times = tau.tolist()
    sysm = builtin_scenario("c1", 0.0).system
    want = {
        "A": np.array([[[0.0, 1.0], [-math.sin(t) * math.sin(t), 0.0]] for t in times]),
        "B": np.tile([[0.0], [1.0]], (len(times), 1, 1)),
        "C": np.tile([[1.0, 0.0]], (len(times), 1, 1)),
        "u": np.array([[math.sin(t)] for t in times]),
    }
    for name, value in want.items():
        got = np.asarray(getattr(sysm, name)(tau))
        assert got.shape == value.shape and got.tobytes() == value.tobytes(), name
    delays = {
        "identity": DelaySpec(),
        "constant": DelaySpec(base=1.0),
        "sinusoidal": DelaySpec(base=1.0, amplitude=0.9, frequency=1.0),
        "formula": DelaySpec(base=1.0, amplitude=0.5, frequency=2.0),
        "custom": DelaySpec(fn=lambda t: t - 1.0 - 0.9 * np.sin(t)),
    }
    for kind, delay in delays.items():
        value = np.array([_scalar_delay(kind, t) for t in times])
        got = delay(tau)
        assert got.shape == value.shape and got.tobytes() == value.tobytes(), kind
        assert (got == 0.0).sum() >= (1000 if kind != "identity" else 1)
