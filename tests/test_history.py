"""Trajectory storage: append discipline, interpolation, exactness at nodes."""

import re

import numpy as np
import pytest

from gpebo import TrajectoryHistory


def test_append_single_sample():
    h = TrajectoryHistory()
    h.append(0.0, np.array([1.0, -1.0]))
    times = h.as_arrays()[0]
    assert len(times) == 1
    assert times[0] == 0.0
    assert times[-1] == 0.0


def test_append_two_samples():
    h = TrajectoryHistory()
    h.append(0.0, np.array([1.0]))
    h.append(0.001, np.array([2.0]))
    times = h.as_arrays()[0]
    assert len(times) == 2
    assert times[-1] == 0.001


def test_append_non_monotone_rejected():
    h = TrajectoryHistory()
    for t in (np.nan, np.inf, "0.5", np.array([1.0, 2.0])):
        with pytest.raises(ValueError, match="^t must be"):
            h.append(t, np.array([1.0]))
    h.append(0.001, np.array([1.0]))
    with pytest.raises(ValueError):
        h.append(0.0, np.array([2.0]))
    with pytest.raises(ValueError):
        h.append(0.001, np.array([2.0]))
    for t in (np.nan, np.inf, "0.5", np.array([1.0, 2.0])):
        with pytest.raises(ValueError, match="^t must be"):
            h.append(t, np.array([2.0]))
    assert h.as_arrays()[0].tolist() == [0.001]


def test_append_shape_mismatch_rejected():
    h = TrajectoryHistory()
    h.append(0.0, np.zeros(2))
    with pytest.raises(ValueError):
        h.append(1.0, np.zeros(3))
    with pytest.raises(ValueError, match="^value must be real numbers, got dtype complex128$"):
        h.append(1.0, np.zeros(2) + 1j)


def test_sample_exact_node():
    h = TrajectoryHistory()
    h.append(0.0, np.array([0.0]))
    h.append(1.0, np.array([2.0]))
    assert h.sample(1.0)[0] == 2.0
    assert h.sample(0.0)[0] == 0.0


def test_sample_linear_midpoint():
    h = TrajectoryHistory()
    h.append(0.0, np.array([0.0]))
    h.append(1.0, np.array([2.0]))
    assert h.sample(0.5)[0] == 1.0


def test_sample_out_of_range():
    h = TrajectoryHistory()
    h.append(0.0, np.array([0.0]))
    h.append(1.0, np.array([2.0]))
    with pytest.raises(ValueError):
        h.sample(1.5)
    with pytest.raises(ValueError):
        h.sample(-0.1)


def test_sample_empty():
    with pytest.raises(ValueError):
        TrajectoryHistory().sample(0.0)


def test_node_values_round_trip_bit_exact():
    rng = np.random.default_rng(7)
    times = np.cumsum(rng.uniform(0.01, 0.5, size=50))
    vals = rng.standard_normal((50, 3))
    h = TrajectoryHistory()
    for t, v in zip(times, vals):
        h.append(float(t), v)
    for t, v in zip(times, vals):
        got = h.sample(float(t))
        assert np.array_equal(got, v)


def test_matrix_samples():
    h = TrajectoryHistory()
    h.append(0.0, np.eye(2))
    h.append(1.0, 3.0 * np.eye(2))
    mid = h.sample(0.5)
    assert np.allclose(mid, 2.0 * np.eye(2), atol=0)


def test_interpolation_error_bound_for_smooth_signal():
    # second derivative of sin is bounded by 1, so error <= h^2 / 8
    hstep = 1e-3
    times = np.arange(0.0, 1.0 + hstep / 2, hstep)
    h = TrajectoryHistory.from_grid(times, np.sin(times)[:, None])
    mids = times[:-1] + hstep / 2
    errs = [abs(h.sample(float(t))[0] - np.sin(t)) for t in mids]
    assert max(errs) <= 1.25e-7


def test_from_grid_matches_incremental():
    rng = np.random.default_rng(11)
    times = np.sort(rng.uniform(0, 10, size=20))
    times = np.unique(times)
    vals = rng.standard_normal((len(times), 2))
    a = TrajectoryHistory.from_grid(times, vals)
    b = TrajectoryHistory()
    for t, v in zip(times, vals):
        b.append(float(t), v)
    for q in np.linspace(times[0], times[-1], 37):
        assert np.array_equal(a.sample(float(q)), b.sample(float(q)))


def test_as_arrays():
    h = TrajectoryHistory()
    h.append(0.0, np.array([1.0, 2.0]))
    h.append(0.5, np.array([3.0, 4.0]))
    times, vals = h.as_arrays()
    assert times.tolist() == [0.0, 0.5]
    assert vals.shape == (2, 2)
    assert vals[1, 0] == 3.0


def test_sample_at_matches_per_node_formula_bit_exact():
    # reference: the per-query bisect and v0 + (v1 - v0) w of a list-backed history
    from bisect import bisect_right

    rng = np.random.default_rng(5)
    times = np.cumsum(rng.uniform(0.01, 0.5, size=40))
    vals = rng.standard_normal((40, 2, 3))
    h = TrajectoryHistory.from_grid(times, vals)
    queries = np.concatenate([times, rng.uniform(times[0], times[-1], size=200)])
    got = h.sample(queries)
    assert got.shape == (240, 2, 3)
    assert np.array_equal(h.sample(queries.reshape(4, 60)), got.reshape(4, 60, 2, 3))
    scalar = TrajectoryHistory.from_grid(times, vals[:, 1, 2])
    for q, g in zip(queries.tolist(), got):
        i = bisect_right(times.tolist(), q) - 1
        if times[i] == q:
            ref = vals[i]
        else:
            ref = vals[i] + (vals[i + 1] - vals[i]) * ((q - times[i]) / (times[i + 1] - times[i]))
        assert np.array_equal(g, ref)
        assert np.array_equal(h.sample(q), ref)
        got_scalar = scalar.sample(q)
        assert type(got_scalar) is np.float64 and got_scalar == ref[1, 2]
    with pytest.raises(ValueError):
        h.sample(np.array([times[0], times[-1] + 1e-9]))


def test_from_grid_rejects_unordered_times():
    with pytest.raises(ValueError):
        TrajectoryHistory.from_grid([0.0, 1.0, 1.0], np.zeros((3, 2)))
    for times in ([np.inf], [0.0, np.nan]):
        with pytest.raises(ValueError, match="^times must be finite"):
            TrajectoryHistory.from_grid(times, np.ones((len(times), 1)))
    with pytest.raises(ValueError):
        TrajectoryHistory.from_grid([0.0, 2.0, 1.0], np.zeros((3, 2)))
    # times and values that do not align on the leading axis
    for times, values in (([0.0, 1.0], np.zeros((3, 2))), (np.zeros((2, 2)), np.zeros(2))):
        with pytest.raises(ValueError, match="^times and values must align"):
            TrajectoryHistory.from_grid(times, values)
    # complex, string or ragged times or values, refused by name rather
    # than read with their imaginary parts dropped
    t = np.array([0.0, 1.0])
    for times, values, want in (
            (t + 1j, np.zeros((2, 1)), "times must be real numbers, got dtype complex128"),
            (t, np.ones((2, 1)) * (1 + 1j), "values must be real numbers, got dtype complex128"),
            (["0", "1"], np.zeros((2, 1)), "times must be real numbers, got dtype <U1"),
            (t, [[0.0], [1.0, 2.0]], "values must be real numbers, got a ragged sequence")):
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            TrajectoryHistory.from_grid(times, values)
