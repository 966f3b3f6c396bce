"""Windowed excitation integrals and the sliding persistence check."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from gpebo import (
    DelaySpec,
    LtiOracle,
    NamedScenario,
    SystemSpec,
    TrajectoryHistory,
    builtin_scenario,
    pe_check,
    pe_integral,
    delayed_pe_integral,
    simulate,
)


def _const_phi_history(tmax=10.0, step=0.01):
    times = np.arange(0.0, tmax + step / 2, step)
    return TrajectoryHistory.from_grid(times, np.ones((len(times), 1, 1)))


def _decay_phi_history(tmax=30.0, step=1e-3):
    times = np.arange(0.0, tmax + step / 2, step)
    return TrajectoryHistory.from_grid(times, np.exp(-times)[:, None, None])


def _unit_C(t):
    return np.ones(t.shape + (1, 1))


def test_constant_scalar_integral_equals_window():
    hist = _const_phi_history()
    Gq, Gn = pe_integral(hist, _unit_C, 0.0, 2.0)
    assert Gq.shape == (1, 1) and Gn.shape == (1, 1)
    assert abs(Gq[0, 0] - 2.0) <= 1e-12
    assert abs(Gn[0, 0] - 2.0) <= 1e-12


def test_decaying_scalar_matches_closed_form():
    hist = _decay_phi_history()
    for t in (0.0, 5.0, 20.0):
        Gq, _ = pe_integral(hist, _unit_C, t, 2.0)
        exact = math.exp(-2.0 * t) * (1.0 - math.exp(-4.0)) / 2.0
        assert abs(Gq[0, 0] - exact) <= 1e-6


def test_window_must_fit_trajectory():
    hist = _const_phi_history(tmax=1.0)
    with pytest.raises(ValueError):
        pe_integral(hist, _unit_C, 0.5, 2.0)
    with pytest.raises(ValueError):
        pe_integral(hist, _unit_C, -1.0, 1.0)
    with pytest.raises(ValueError):
        pe_integral(hist, _unit_C, 0.0, -1.0)


def _benchmark_run(horizon=12.0):
    return simulate(builtin_scenario("c1", 0.0, horizon=horizon))


def test_additivity_over_adjacent_windows():
    res = _benchmark_run()
    hist = res.phi_history()
    C = res.scenario.system.C
    t0 = float(res.t[0])
    mid = float(res.t[5000])
    end = float(res.t[10000])
    full_q, full_n = pe_integral(hist, C, t0, end - t0)
    a_q, a_n = pe_integral(hist, C, t0, mid - t0)
    b_q, b_n = pe_integral(hist, C, mid, end - mid)
    assert np.abs(full_q - (a_q + b_q)).max() <= 1e-10
    assert np.abs(full_n - (a_n + b_n)).max() <= 1e-10


def test_integrals_symmetric_and_psd():
    res = _benchmark_run()
    hist = res.phi_history()
    C = res.scenario.system.C
    for t in (0.0, 2.5, 6.0):
        Gq, Gn = pe_integral(hist, C, t, 5.0)
        assert np.abs(Gq - Gq.T).max() <= 1e-12
        assert np.abs(Gn - Gn.T).max() <= 1e-12
        assert np.linalg.eigvalsh(Gn).min() >= -1e-10


def test_scalar_output_form_equals_trace_of_regressor_form():
    res = _benchmark_run()
    hist = res.phi_history()
    C = res.scenario.system.C
    Gq, Gn = pe_integral(hist, C, 1.0, 5.0)
    assert abs(Gq[0, 0] - np.trace(Gn)) <= 1e-10


def test_delayed_pe_identity_delay_equals_plain_integral():
    res = _benchmark_run()
    hist = res.phi_history()
    C = res.scenario.system.C
    _, Gn = pe_integral(hist, C, 1.0, 5.0)
    G4 = delayed_pe_integral(hist, C, 1.0, 5.0, DelaySpec.identity())
    assert np.abs(G4 - Gn).max() <= 1e-8


def test_delayed_pe_constant_delay_shifts_window():
    res = _benchmark_run()
    hist = res.phi_history()
    C = res.scenario.system.C
    G4 = delayed_pe_integral(hist, C, 3.0, 4.0, DelaySpec.constant(1.0))
    _, Gn = pe_integral(hist, C, 2.0, 4.0)
    assert np.abs(G4 - Gn).max() <= 1e-10


def test_delayed_pe_sinusoidal_delay_is_finite_spd():
    res = _benchmark_run()
    hist = res.phi_history()
    C = res.scenario.system.C
    d = DelaySpec.sinusoidal(1.0, 0.9, 1.0)  # rate 1 - 0.9 cos(s) in [0.1, 1.9]
    G = delayed_pe_integral(hist, C, 4.0, 5.0, d)
    assert np.all(np.isfinite(G))
    assert np.abs(G - G.T).max() <= 1e-12
    assert np.linalg.eigvalsh(G).min() > 0.0


def _tau_quadrature(Phi_at, C, delay, t, T, kinks=()):
    """Direct time-domain quadrature of psi(tau)^T psi(tau) over [t, t+T],
    psi(tau) = C Phi(phi(tau)): 8-point Gauss-Legendre on panels of at
    most 0.05, split at the kinks of the delay map."""
    x, w = np.polynomial.legendre.leggauss(8)
    cuts = [t] + sorted(k for k in kinks if t < k < t + T) + [t + T]
    nodes, weights = [], []
    for a, b in zip(cuts, cuts[1:]):
        edges = np.linspace(a, b, math.ceil((b - a) / 0.05) + 1)
        half = 0.5 * np.diff(edges)[:, None]
        nodes.append((0.5 * (edges[1:] + edges[:-1])[:, None] + half * x).ravel())
        weights.append((half * w).ravel())
    tau = np.concatenate(nodes)
    rows = np.stack([C @ Phi_at(p) for p in delay(tau).tolist()])
    return np.einsum("k,kqi,kqj->ij", np.concatenate(weights), rows, rows)


@pytest.fixture(scope="module")
def benchmark_phi():
    """The benchmark plant's Phi by DOP853, for reference quadratures."""
    def rhs(t, p):
        a21 = -math.sin(t) ** 2
        return [p[2], p[3], a21 * p[0], a21 * p[1]]

    sol = solve_ivp(rhs, (0.0, 12.0), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                    rtol=1e-12, atol=1e-13, dense_output=True)
    return lambda s: sol.sol(s).reshape(2, 2)


def test_delayed_pe_matches_tau_domain_quadrature(benchmark_phi):
    res = _benchmark_run()
    hist = res.phi_history()
    C = res.scenario.system.C(np.zeros(1))[0]
    # a map with a plateau on [1, 2], where it is flat, and c3's sinusoid,
    # clamped at zero until t* and leaving the clamp with a kink
    plateau = DelaySpec.custom(lambda t: np.minimum(t, np.maximum(1.0, t - 1.0)))
    c3 = DelaySpec.sinusoidal(1.0, 0.9, 1.0)
    t_star = brentq(lambda t: t - 1.0 - 0.9 * math.sin(t), 1.0, 2.0, xtol=1e-15)
    for delay, kinks, t, T in ((plateau, (1.0, 2.0), 0.5, 2.5), (c3, (t_star,), 0.2, 2.0),
                               (c3, (t_star,), 4.0, 5.0)):
        G = delayed_pe_integral(hist, res.scenario.system.C, t, T, delay)
        ref = _tau_quadrature(benchmark_phi, C, delay, t, T, kinks)
        assert np.linalg.norm(G - ref) <= 1e-5 * np.linalg.norm(ref)


def test_delayed_pe_frozen_map_integrates_constant_regressor():
    res = _benchmark_run()
    hist = res.phi_history()
    C = res.scenario.system.C
    frozen = DelaySpec.custom(np.zeros_like)
    G = delayed_pe_integral(hist, C, 1.0, 2.0, frozen)
    psi0 = C(np.zeros(1))[0] @ hist.sample(0.0)
    assert np.abs(G - 2.0 * psi0.T @ psi0).max() <= 1e-14


_ROTATION = LtiOracle(np.array([[0.0, 1.5], [-1.5, 0.0]]))  # w = 1.5
_SPAN = 8.0


@functools.cache
def _rotation_history():
    times = 1e-3 * np.arange(8001)
    return TrajectoryHistory.from_grid(times, np.stack([_ROTATION.phi(v) for v in times.tolist()]))


def _raw(delay, v):
    """The constant or sinusoidal map before its clamp into [0, v]."""
    if delay.kind == "constant":
        return v - delay.tau
    return v - (delay.base + delay.amplitude * math.sin(delay.frequency * v))


def _delay_kinks(delay, t, T):
    """Where the map meets a clamp: raw phi crossing 0 or crossing tau."""
    grid = np.linspace(t, t + T, 4001)
    kinks = []
    for f in (lambda v: _raw(delay, v), lambda v: _raw(delay, v) - v):
        vals = np.array([f(v) for v in grid.tolist()])
        for k in np.flatnonzero(np.sign(vals[1:]) * np.sign(vals[:-1]) < 0):
            kinks.append(brentq(f, grid[k], grid[k + 1], xtol=1e-15))
    return kinks


_delays = st.one_of(
    st.builds(DelaySpec.constant, st.floats(0.0, 2.0)),
    st.builds(DelaySpec.sinusoidal, st.floats(0.0, 2.0), st.floats(0.0, 1.0),
              st.floats(0.0, 1.5)),
)


@settings(max_examples=60, deadline=None, database=None)
@given(delay=_delays, T=st.floats(0.1, 3.0), frac=st.floats(0.0, 1.0))
def test_delayed_pe_matches_gauss_legendre_property(delay, T, frac):
    hist = _rotation_history()
    t = frac * (_SPAN - T)
    C = np.array([[1.0, 0.0]])
    G = delayed_pe_integral(hist, lambda s: np.broadcast_to(C, s.shape + C.shape), t, T, delay)
    kinks = _delay_kinks(delay, t, T)
    ref = _tau_quadrature(_ROTATION.phi, C, delay, t, T, kinks)
    # With w = 1.5, phi' <= 2.5 and |phi''| <= 2.25, |g''| <= 63 for the
    # entries g of psi^T psi: the trapezoid on h = 1e-3 is within
    # 5.3e-6 T, interpolating Phi adds 5.6e-7 T, and each kink at most
    # about 4e-6.
    assert np.abs(G - ref).max() <= 1e-5 * (T + len(kinks))


def test_pe_check_constant_scalar():
    hist = _const_phi_history()
    rep = pe_check(hist, _unit_C, T=2.0, delta_floor=1.0)
    assert rep.pe_output and rep.pe_regressor
    assert rep.delta_output == pytest.approx(2.0, abs=1e-9)
    assert len(rep.starts) == 41  # stride T/10 over [0, 8]


def test_pe_check_decaying_scalar_fails():
    hist = _decay_phi_history()
    rep = pe_check(hist, _unit_C, T=2.0, delta_floor=1e-3)
    assert not rep.pe_regressor and not rep.pe_output
    assert rep.min_eig_regressor[-1] < rep.min_eig_regressor[0]


def test_pe_check_benchmark_regressor_form_holds():
    res = _benchmark_run()
    rep = pe_check(res.phi_history(), res.scenario.system.C, T=5.0, delta_floor=1e-4)
    assert rep.pe_regressor
    assert rep.delta_regressor > 1e-4
    assert np.all(rep.min_eig_output >= -1e-10)
    assert np.all(rep.min_eig_regressor >= -1e-10)


def test_pe_check_validation():
    hist = _const_phi_history(tmax=1.0)
    with pytest.raises(ValueError):
        pe_check(hist, _unit_C, T=2.0, delta_floor=1e-3)
    with pytest.raises(ValueError):
        pe_check(hist, _unit_C, T=0.5, delta_floor=0.0)
    with pytest.raises(ValueError):
        pe_check(hist, _unit_C, T=0.5, delta_floor=1e-3, stride=-1.0)
