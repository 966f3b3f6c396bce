"""CSV and SVG emission: schema, round trip, determinism, atomicity."""

import os
import stat
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from gpebo import RunResult, builtin_scenario, emit_csv, emit_svg, simulate
from gpebo.cli import main
from gpebo.excitation import pe_check
from gpebo.report import (_CSV_BLOCK, SVG_MAX_POINTS, _atomic_text, _thin, csv_header,
                          format_pe_summary, write_pe_report)


def _sweep(gammas=(1.0, 10.0), horizon=1.0, scenario="c1", estimator="gradient"):
    runs = [
        simulate(builtin_scenario(scenario, g, estimator=estimator, horizon=horizon))
        for g in gammas
    ]
    return RunResult(
        scenario_id=scenario,
        estimator=estimator,
        gammas=list(gammas),
        runs=runs,
        duration=0.0,
    )


def test_csv_header_shape():
    assert csv_header(2) == (
        "t,gamma,x1,x2,xhat1,xhat2,e1,e2,theta1,theta2,thetahat1,thetahat2"
    )


def test_csv_rows_and_order(tmp_path):
    result = _sweep(gammas=(10.0, 1.0), horizon=0.01)
    path = tmp_path / "out.csv"
    emit_csv(result, str(path))
    lines = path.read_text().splitlines()
    n_nodes = len(result.runs[0].t)
    assert len(lines) == 1 + 2 * n_nodes
    gammas = [float(line.split(",")[1]) for line in lines[1:]]
    # blocks ordered by ascending gamma regardless of construction order
    assert gammas[:n_nodes] == [1.0] * n_nodes
    assert gammas[n_nodes:] == [10.0] * n_nodes
    times = [float(line.split(",")[0]) for line in lines[1 : n_nodes + 1]]
    assert times == sorted(times)


def test_csv_initial_row_error_columns(tmp_path):
    result = _sweep(gammas=(1.0,), horizon=0.01)
    path = tmp_path / "out.csv"
    emit_csv(result, str(path))
    first = path.read_text().splitlines()[1].split(",")
    # defaults: xhat(0) = xi0 - Phi(0) theta_hat0 = 0, so e(0) = x(0)
    assert float(first[0]) == 0.0
    assert float(first[6]) == 1.0 and float(first[7]) == -1.0
    assert float(first[2]) == 1.0 and float(first[3]) == -1.0


def test_csv_round_trip_exact(tmp_path):
    result = _sweep(gammas=(10.0,), horizon=0.1)
    run = result.runs[0]
    path = tmp_path / "out.csv"
    emit_csv(result, str(path))
    lines = path.read_text().splitlines()[1:]
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
    assert np.array_equal(parsed[:, 0], run.t)
    assert np.array_equal(parsed[:, 2:4], run.x)
    assert np.array_equal(parsed[:, 4:6], run.xhat)
    assert np.array_equal(parsed[:, 6:8], run.estimation_error)
    assert np.array_equal(parsed[:, 8:10], np.tile(run.theta, (len(run.t), 1)))
    assert np.array_equal(parsed[:, 10:12], run.theta_hat)


def test_csv_text_matches_per_value_formatting(tmp_path):
    # the row template writes what format(v, ".17g") writes for each value,
    # special values included, on both sides of a block boundary
    specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.2250738585072014e-308 / 3,
                1e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0]
    result = _sweep(gammas=(1.0, 10.0), horizon=1.1)
    runs = []
    for k, run in enumerate(result.runs):
        x, theta_hat = run.x.copy(), run.theta_hat.copy()
        rows = np.arange(len(specials)) * 113 + k
        x[rows, 0] = specials
        theta_hat[rows, 1] = specials[::-1]
        runs.append(replace(run, x=x, theta_hat=theta_hat))
    result = replace(result, runs=runs)
    path = tmp_path / "out.csv"
    emit_csv(result, str(path))

    expected = [csv_header(2)]
    for gamma, run in result.ordered():
        N = len(run.t)
        table = np.column_stack([run.t, np.full(N, gamma), run.x, run.xhat,
                                 run.estimation_error, np.tile(run.theta, (N, 1)),
                                 run.theta_hat])
        expected.extend(",".join(format(float(v), ".17g") for v in row) for row in table)
    assert N > _CSV_BLOCK
    text = path.read_text()
    assert text == "\n".join(expected) + "\n"
    for token in ("nan", "inf", "-inf", "-0", "4.9406564584124654e-324", "1e+308"):
        assert f",{token}," in text or f",{token}\n" in text


def _per_value_csv(result):
    """The CSV text with every value written by format(v, ".17g") on its own."""
    n = result.runs[0].x.shape[1]
    lines = [csv_header(n)]
    for gamma, run in result.ordered():
        for k in range(len(run.t)):
            row = [run.t[k], gamma, *run.x[k], *run.xhat[k], *run.estimation_error[k],
                   *run.theta, *run.theta_hat[k]]
            lines.append(",".join(format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


def test_csv_formats_t_and_x_again_when_they_change(tmp_path):
    # t and x text is reused from the previous run only while both have
    # the same bits: runs on two horizons differ in t; runs that differ in
    # x past the first block, or in the sign of a zero (which equal
    # compares would miss), differ in x only
    long, short = _sweep(gammas=(1.0,), horizon=0.6), _sweep(gammas=(10.0,), horizon=0.4)
    horizons = replace(long, gammas=[1.0, 10.0], runs=long.runs + short.runs)
    base = _sweep(gammas=(1.0, 10.0, 100.0), horizon=0.6)
    assert len(base.runs[0].t) > _CSV_BLOCK + 10
    xs = [run.x.copy() for run in base.runs]
    xs[1][_CSV_BLOCK + 10, 0] = np.nextafter(xs[1][_CSV_BLOCK + 10, 0], np.inf)
    xs[1][_CSV_BLOCK + 3, 1] = 0.0
    xs[2] = xs[1].copy()
    xs[2][_CSV_BLOCK + 3, 1] = -0.0
    moved = replace(base, runs=[replace(run, x=x) for run, x in zip(base.runs, xs)])
    for result in (horizons, moved):
        path = tmp_path / "out.csv"
        emit_csv(result, str(path))
        assert path.read_text() == _per_value_csv(result)


def test_cli_sweep_csv_matches_per_value_formatting(tmp_path, capsys):
    # the CLI's gains share one plant, so every run after the first reuses
    # the t and x text
    path = tmp_path / "run.csv"
    assert main(["--scenario", "c3", "--gamma", "1,10,100", "--horizon", "0.6",
                 "--csv", str(path)]) == 0
    result = _sweep(gammas=(1.0, 10.0, 100.0), horizon=0.6, scenario="c3")
    first = result.runs[0]
    for run in result.runs[1:]:
        assert run.t.tobytes() == first.t.tobytes() and run.x.tobytes() == first.x.tobytes()
    assert path.read_text() == _per_value_csv(result)


def test_csv_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    emit_csv(_sweep(horizon=0.05), str(a))
    emit_csv(_sweep(horizon=0.05), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_csv_write_failure_leaves_no_file(tmp_path):
    result = _sweep(gammas=(1.0,), horizon=0.01)
    missing = tmp_path / "no_such_dir" / "out.csv"
    with pytest.raises(OSError):
        emit_csv(result, str(missing))
    assert not missing.exists()
    assert not list(tmp_path.iterdir())
    # a writer that fails leaves an existing target as it was, and no temporary file
    target = tmp_path / "keep.csv"
    target.write_text("old\n")

    def writer(fh):
        fh.write("partial")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        _atomic_text(str(target), writer)
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["keep.csv"]


def test_outputs_take_the_mode_open_would_give(tmp_path, capsys):
    # a new file gets 0666 less the umask, an overwritten one keeps its own
    # mode; mkstemp's 0600 used to reach every output
    old_umask = os.umask(0o022)
    try:
        outs = [tmp_path / f"a.{ext}" for ext in ("csv", "svg", "pe")]
        argv = ["--gamma", "1", "--horizon", "1", "--step", "1e-2", "--pe-window", "0.5"]
        for flag, path in zip(("--csv", "--svg", "--pe-report"), outs):
            argv += [flag, str(path)]
        assert main(argv) == 0
        (tmp_path / "touched").open("w").close()
        assert stat.S_IMODE((tmp_path / "touched").stat().st_mode) == 0o644
        for path in outs:
            assert stat.S_IMODE(path.stat().st_mode) == 0o644
            path.chmod(0o640)
        assert main(argv) == 0
        for path in outs:
            assert stat.S_IMODE(path.stat().st_mode) == 0o640
        os.umask(0o027)
        _atomic_text(str(tmp_path / "group"), lambda fh: fh.write("x"))
        assert stat.S_IMODE((tmp_path / "group").stat().st_mode) == 0o640
    finally:
        os.umask(old_umask)
    capsys.readouterr()


def test_svg_structure(tmp_path):
    result = _sweep(gammas=(1.0, 10.0, 100.0), horizon=0.5)
    path = tmp_path / "fig.svg"
    emit_svg(result, str(path))
    text = path.read_text()
    assert text.startswith("<?xml")
    root = ET.fromstring(text)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    polys = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polys) == 2 * 3  # one per gamma in each state-component panel
    labels = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    for g in ("gamma=1", "gamma=10", "gamma=100"):
        assert g in labels


def _vertices(path):
    """Each polyline's vertices as an (N, 2) array of x, y."""
    polys = ET.fromstring(path.read_text()).findall(".//{http://www.w3.org/2000/svg}polyline")
    return [np.array([v.split(",") for v in p.attrib["points"].split()], float) for p in polys]


def test_svg_time_axis_spans_every_run(tmp_path):
    # runs of 2 s and 4 s share one frame; the longer one sets the right edge
    runs = [simulate(builtin_scenario("c1", g, horizon=h)) for g, h in ((1.0, 2.0), (10.0, 4.0))]
    path = tmp_path / "fig.svg"
    emit_svg(RunResult("c1", "gradient", [1.0, 10.0], runs, 0.0), str(path))
    left, plot_w = 70, 960 - 70 - 190
    polys = _vertices(path)
    for xy in polys:
        assert left <= xy[:, 0].min() and xy[:, 0].max() <= left + plot_w
    for short, long in (polys[0:2], polys[2:4]):  # one panel per state component
        assert short[0, 0] == long[0, 0] == left
        assert short[-1, 0] == left + plot_w / 2 and long[-1, 0] == left + plot_w


def test_svg_pads_a_flat_error(tmp_path):
    # a copy started on the plant's state has an error of exactly 0, drawn mid-panel
    run = simulate(builtin_scenario("c1", 1.0, horizon=0.5, xi0=(1.0, -1.0)))
    assert not run.estimation_error.any()
    path = tmp_path / "fig.svg"
    emit_svg(RunResult("c1", "gradient", [1.0], [run], 0.0), str(path))
    top, panel_h, panel_gap = 48, 240, 58
    for comp, xy in enumerate(_vertices(path)):
        assert (xy[:, 1] == top + comp * (panel_h + panel_gap) + panel_h / 2).all()


def test_svg_deterministic_bytes(tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    emit_svg(_sweep(horizon=0.2), str(a))
    emit_svg(_sweep(horizon=0.2), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_svg_thins_long_runs(tmp_path):
    result = _sweep(gammas=(1.0,), horizon=6.0)  # 6001 nodes
    path = tmp_path / "fig.svg"
    emit_svg(result, str(path))
    root = ET.fromstring(path.read_text())
    polys = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    for p in polys:
        npts = len(p.attrib["points"].split())
        assert npts <= 2001
    # a stride that misses the last node appends it
    idx = _thin(4002)
    assert idx[-1] == 4001 and len(idx) <= SVG_MAX_POINTS + 1
    assert (np.diff(idx) > 0).all()


@pytest.mark.parametrize("horizon", [0.5, 2.5])
def test_svg_polylines_match_per_point_formatting(tmp_path, horizon):
    # every vertex as f"{sx(t):.2f},{sy(e):.2f}" on scalars, with the
    # figure's layout: 0.5 s (501 nodes) is drawn whole, 2.5 s is thinned
    result = _sweep(gammas=(1.0, 10.0, 100.0), horizon=horizon, scenario="c2")
    path = tmp_path / "fig.svg"
    emit_svg(result, str(path))
    pairs = result.ordered()
    t = pairs[0][1].t
    t_lo, t_hi = float(t[0]), float(t[-1])
    left, plot_w, top, panel_h, panel_gap = 70, 960 - 70 - 190, 48, 240, 58
    expected = []
    for comp in range(2):
        py = top + comp * (panel_h + panel_gap)
        errs = [run.estimation_error[:, comp] for _, run in pairs]
        y_lo, y_hi = min(float(e.min()) for e in errs), max(float(e.max()) for e in errs)
        pad = 0.04 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
        for (_, run), e in zip(pairs, errs):
            idx = _thin(len(run.t))
            assert (len(idx) < len(run.t)) == (horizon > 2.0) == (len(t) > SVG_MAX_POINTS)
            expected.append(" ".join(
                f"{left + (run.t[i] - t_lo) / (t_hi - t_lo) * plot_w:.2f},"
                f"{py + (y_hi - e[i]) / (y_hi - y_lo) * panel_h:.2f}" for i in idx))
    polys = ET.fromstring(path.read_text()).findall(".//{http://www.w3.org/2000/svg}polyline")
    assert [p.attrib["points"] for p in polys] == expected


def test_run_result_validation():
    run = simulate(builtin_scenario("c1", 1.0, horizon=0.01))
    with pytest.raises(ValueError):
        RunResult(scenario_id="c1", estimator="gradient", gammas=[1.0, 2.0],
                  runs=[run], duration=0.0)
    with pytest.raises(ValueError):
        RunResult(scenario_id="c1", estimator="gradient", gammas=[],
                  runs=[], duration=0.0)
    # a gain that is not the run's own would label every CSV row with it
    with pytest.raises(ValueError, match="^gamma 5.0 labels a run at gamma 1.0$"):
        RunResult("c1", "gradient", [5.0], [run], 0.0)
    assert RunResult("c1", "gradient", [1], [run], 0.0).gammas == [1]


def test_pe_report_file(tmp_path):
    res = simulate(builtin_scenario("c1", 0.0, horizon=6.0))
    rep = pe_check(res.phi_history(), res.scenario.system.C, T=2.0, delta_floor=1e-4)
    path = tmp_path / "pe.csv"
    write_pe_report(rep, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "window_start,min_eig_output,min_eig_regressor"
    assert len(lines) == 1 + len(rep.starts)
    row = lines[1].split(",")
    assert float(row[0]) == rep.starts[0]
    assert float(row[1]) == rep.min_eig_output[0]
    summary = format_pe_summary(rep)
    assert "window=2" in summary and "holds=" in summary
