"""Command line behavior: flags, config files, exit codes, outputs."""

import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import gpebo.cli as cli
from gpebo import SimulationResult, builtin_scenario, pe_check, simulate
from gpebo.cli import (MAX_SWEEP_NODES, ConfigError, RunConfig, assemble_config, build_parser,
                       load_config_file, main)


def test_defaults():
    cfg = RunConfig()
    cfg.validate()
    assert cfg.scenario == "c1"
    assert cfg.gammas == (1.0, 10.0, 100.0)
    assert cfg.step == 1e-3 and cfg.horizon == 30.0


def test_validate_rejects_bad_values():
    with pytest.raises(ConfigError):
        RunConfig(gammas=(0.0,)).validate()
    with pytest.raises(ConfigError):
        RunConfig(gammas=(-5.0,)).validate()
    with pytest.raises(ConfigError):
        RunConfig(gammas=()).validate()
    with pytest.raises(ConfigError):
        RunConfig(step=-1e-3).validate()
    with pytest.raises(ConfigError):
        RunConfig(horizon=0.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(step=2.0, horizon=1.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(scenario="c9").validate()
    with pytest.raises(ConfigError, match="^unknown scenario id None"):
        RunConfig(scenario=None).validate()
    with pytest.raises(ConfigError):
        RunConfig(pe_floor=0.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(x0=(1.0,)).validate()
    # two runs at one gain would write two blocks no reader can tell apart
    with pytest.raises(ConfigError, match="^gamma 1 given twice$"):
        RunConfig(gammas=(1.0, 1.0, 10.0)).validate()


@pytest.mark.parametrize("field", ["step", "horizon", "pe_window", "pe_floor", "gammas",
                                   "x0", "xi0", "theta0"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_validate_rejects_non_finite_values(field, value):
    vectors = {"gammas": (value,), "x0": (0.0, value), "xi0": (value, 0.0),
               "theta0": (value, value)}
    cfg = RunConfig(**{field: vectors.get(field, value)})
    with pytest.raises(ConfigError):
        cfg.validate()


def test_validate_pe_window_against_horizon(tmp_path, capsys):
    with pytest.raises(ConfigError, match="^pe-window 5 exceeds the horizon 2$"):
        RunConfig(horizon=2.0, pe_window=5.0, pe_report="pe.csv").validate()
    # a window past the grid's last node, which rounds the horizon down: the
    # message names the node, not the longer horizon
    with pytest.raises(ConfigError, match="^pe-window 2.002 exceeds the grid's last node 2$"):
        RunConfig(horizon=2.004, step=1e-2, pe_window=2.002, pe_report="pe.csv").validate()
    RunConfig(horizon=2.0, pe_window=2.0, pe_report="pe.csv").validate()
    # a window shorter than 10 steps would start more than one window per node
    with pytest.raises(ConfigError, match="shorter than 10 steps"):
        RunConfig(horizon=1.0, gammas=(1.0,), pe_window=1e-4, pe_report="pe.csv").validate()
    with pytest.raises(ConfigError, match="shorter than 10 steps"):
        RunConfig(horizon=1.0, step=1e-2, pe_window=0.099, pe_report="pe.csv").validate()
    RunConfig(horizon=1.0, step=1e-2, pe_window=0.1, pe_report="pe.csv").validate()
    path = tmp_path / "pe.csv"
    assert main(["--horizon", "1", "--gamma", "1", "--pe-window", "1e-4",
                 "--pe-report", str(path)]) == 2
    captured = capsys.readouterr()
    assert "simulated" not in captured.out
    assert "shorter than 10 steps" in captured.err
    assert not path.exists()
    # without a scan the window is never used
    RunConfig(horizon=3.0, pe_window=5.0).validate()
    RunConfig(horizon=1.0, pe_window=1e-4).validate()


def test_validate_rejects_oversized_grid():
    # the node count is arithmetic on horizon and step: nothing is allocated
    for cfg in (RunConfig(horizon=1e9), RunConfig(step=1e-12), RunConfig(horizon=1e300)):
        with pytest.raises(ConfigError, match="grid nodes"):
            cfg.validate()
    # the limit counts the nodes of every gain's run, t = 0 included
    steps = MAX_SWEEP_NODES - 1
    RunConfig(gammas=(1.0,), step=1.0, horizon=float(steps)).validate()
    with pytest.raises(ConfigError, match="grid nodes"):
        RunConfig(gammas=(1.0,), step=1.0, horizon=float(steps + 1)).validate()
    with pytest.raises(ConfigError, match="grid nodes"):
        RunConfig(gammas=(1.0, 10.0), step=1.0, horizon=float(steps // 2 + 1)).validate()


def test_main_rejects_oversized_grid_before_simulating(monkeypatch, capsys):
    def refuse(scenario):
        raise AssertionError("simulated an oversized grid")

    monkeypatch.setattr(cli, "simulate", refuse)
    assert main(["--horizon", "1e9"]) == 2
    assert main(["--step", "1e-12"]) == 2
    # horizon / step overflows to inf
    assert main(["--horizon", "1e300", "--step", "1e-300"]) == 2
    assert "grid nodes" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, name", [
    ("horizon", "inf", "horizon"),
    ("step", "nan", "step"),
    ("gamma", "1,inf", "gamma"),
    ("x0", "nan,0", "x0"),
    ("xi0", "0,inf", "xi0"),
    ("theta0", "1,2,3", "theta_hat0"),
    ("scenario", "c9", "scenario"),
    ("estimator", "secret", "estimator"),
])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_main_rejects_model_errors_before_simulating(tmp_path, monkeypatch, capsys,
                                                     flag, value, name, source):
    # the model rejects the value while the config is validated
    def refuse(scenario):
        raise AssertionError("simulated a rejected config")

    monkeypatch.setattr(cli, "simulate", refuse)
    if source == "flag":
        argv = [f"--{flag}={value}"]
    else:
        path = tmp_path / "run.cfg"
        path.write_text(f"{flag} = {value}\n")
        argv = ["--config", str(path)]
    assert main(argv) == 2
    assert name in capsys.readouterr().err


def test_scenario_and_estimator_names_are_case_insensitive(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("scenario = C2\nestimator = DREM\n")
    from_file = assemble_config(build_parser().parse_args(["--config", str(path)]))
    from_flags = assemble_config(build_parser().parse_args(
        ["--scenario", "C2", "--estimator", "Drem"]))
    assert from_file == from_flags == RunConfig(scenario="c2", estimator="drem")
    csvs = []
    for argv in (["--config", str(path)], ["--scenario", "C2", "--estimator", "DREM"]):
        csvs.append(tmp_path / f"{len(csvs)}.csv")
        assert main(argv + ["--gamma", "5", "--horizon", "0.5", "--step", "1e-2",
                            "--csv", str(csvs[-1])]) == 0
    assert csvs[0].read_bytes() == csvs[1].read_bytes()


_FIELD_TEXT = {"gammas": ("2,3", (2.0, 3.0)), "x0": ("1,2", (1.0, 2.0)),
               "xi0": ("3,4", (3.0, 4.0)), "theta0": ("5,6", (5.0, 6.0)),
               "scenario": ("c3", "c3"), "estimator": ("drem", "drem"),
               "step": ("0.002", 0.002), "horizon": ("7", 7.0), "pe_window": ("3", 3.0),
               "pe_floor": ("0.5", 0.5), "csv": ("a.csv", "a.csv"),
               "svg": ("b.svg", "b.svg"), "pe_report": ("c.csv", "c.csv")}


def test_every_field_has_one_flag_and_file_keys(tmp_path):
    parser = build_parser()
    flags = {a.dest: a.option_strings for a in parser._actions if a.dest != "help"}
    assert set(flags) == {f.name for f in fields(RunConfig)} | {"config"}
    assert set(_FIELD_TEXT) == {f.name for f in fields(RunConfig)}
    for name, (text, value) in _FIELD_TEXT.items():
        assert len(flags[name]) == 1
        flag = flags[name][0][2:]
        cfg = assemble_config(parser.parse_args([f"--{flag}={text}"]))
        assert getattr(cfg, name) == value
        # the flag name (either spelling) and the field name are file keys
        for key in {flag, flag.replace("-", "_"), name}:
            path = tmp_path / "run.cfg"
            path.write_text(f"{key} = {text}\n")
            assert load_config_file(str(path)) == {name: value}


def test_readme_flag_list_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("Flags (all optional", 1)[1].split("\n\n", 1)[1].split("\n\n", 1)[0]
    listed = set(re.findall(r"`(--[a-z0-9-]+)", section))
    defined = {s for a in build_parser()._actions for s in a.option_strings
               if s.startswith("--") and s != "--help"}
    assert listed == defined


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# benchmark sweep\n"
        "scenario = c2\n"
        "estimator = drem\n"
        "gamma = 1, 10\n"
        "step = 1e-2\n"
        "horizon = 2\n"
        "pe-window = 1.5\n"
        "\n"
    )
    values = load_config_file(str(p))
    assert values["scenario"] == "c2"
    assert values["estimator"] == "drem"
    assert values["gammas"] == (1.0, 10.0)
    assert values["step"] == 1e-2
    assert values["pe_window"] == 1.5


def test_config_file_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("volume = 11\n")
    with pytest.raises(ConfigError):
        load_config_file(str(p))
    p.write_text("just some words\n")
    with pytest.raises(ConfigError):
        load_config_file(str(p))
    # a value the field's parser refuses names the file, the line and the flag
    for text, message in (("gamma = one,two\n", "gamma: could not convert string to float: 'one'"),
                          ("step = abc\n", "step: could not convert string to float: 'abc'")):
        p.write_text(text)
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{p}:1: {message}')}$"):
            load_config_file(str(p))
    with pytest.raises(ConfigError):
        load_config_file(str(tmp_path / "absent.cfg"))
    # a field set twice, by one key or by both of its spellings
    for text in ("horizon = 1\nstep = 1e-2\nhorizon = 2\n", "gamma = 1\n\ngammas = 10\n"):
        p.write_text(text)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}:3: .* given twice$"):
            load_config_file(str(p))


def test_flags_override_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("scenario = c2\ngamma = 1\nhorizon = 5\n")
    parser = build_parser()
    args = parser.parse_args(
        ["--config", str(p), "--gamma", "7", "--step", "1e-2"]
    )
    cfg = assemble_config(args)
    assert cfg.scenario == "c2"  # from file
    assert cfg.gammas == (7.0,)  # flag wins
    assert cfg.horizon == 5.0
    assert cfg.step == 1e-2


def test_main_happy_path_writes_outputs(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    svg = tmp_path / "fig.svg"
    code = main([
        "--scenario", "c1", "--gamma", "1,10", "--horizon", "1",
        "--step", "1e-2", "--csv", str(csv), "--svg", str(svg),
    ])
    assert code == 0
    assert csv.exists() and svg.exists()
    out = capsys.readouterr().out
    assert "gamma=1" in out and "gamma=10" in out
    assert str(csv) in out


def test_sweep_reads_xhat_at_most_twice_per_run(tmp_path, monkeypatch, capsys):
    # xhat is a product over the whole run: the CSV and the SVG read it once
    # each, and the summary line computes the last node's error alone
    seen = []
    fget = SimulationResult.xhat.fget
    monkeypatch.setattr(SimulationResult, "xhat", property(lambda r: seen.append(r) or fget(r)))
    code = main(["--scenario", "c3", "--gamma", "1,10,100", "--horizon", "1", "--step", "1e-2",
                 "--csv", str(tmp_path / "out.csv"), "--svg", str(tmp_path / "fig.svg")])
    assert code == 0
    reads = Counter(map(id, seen))
    assert len(reads) == 3 and max(reads.values()) <= 2


def test_main_summary_only(capsys):
    code = main(["--scenario", "c3", "--gamma", "100", "--horizon", "0.5",
                 "--step", "1e-2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "scenario=c3" in out and "gamma=100" in out


def test_main_rejects_zero_gamma(capsys):
    code = main(["--gamma", "0", "--horizon", "1"])
    assert code == 2
    assert "gamma" in capsys.readouterr().err


def test_main_rejects_bad_flag_values(capsys):
    assert main(["--scenario", "c9"]) == 2
    assert main(["--step", "-1", "--horizon", "1"]) == 2
    assert main(["--gamma", "abc"]) == 2
    assert main(["--x0", "1,2,3"]) == 2
    capsys.readouterr()
    for argv, message in ((["--gamma", ","], "gamma: must contain at least one number"),
                          (["--step", "abc"], "step: could not convert string to float: 'abc'")):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
    # a flag given twice would keep its last value alone
    for argv in (["--gamma", "1", "--gamma", "10"], ["--csv", "a", "--csv=b"],
                 ["--x0", "-1,2", "--x0=1,2"]):
        assert main(argv) == 2
        assert f"argument {argv[0]}: given twice" in capsys.readouterr().err


def test_negative_values_need_no_equals_sign(tmp_path, capsys):
    # "--x0 -1,2" reads like "--x0=-1,2" for every numeric flag, and runs the same
    parser = build_parser()
    for flag, text in (("x0", "-1,2"), ("xi0", "-0.5,-3"), ("theta0", "-2e-1,1"),
                       ("gamma", "-1,2"), ("horizon", "-1e3")):
        assert parser.parse_args([f"--{flag}", text]) == parser.parse_args([f"--{flag}={text}"])
    cfg = assemble_config(parser.parse_args(["--x0", "-1,2", "--xi0", "-0.5,-3",
                                             "--theta0", "-2e-1,1"]))
    assert (cfg.x0, cfg.xi0, cfg.theta0) == ((-1.0, 2.0), (-0.5, -3.0), (-0.2, 1.0))
    common = ["--gamma", "5", "--horizon", "0.5", "--step", "1e-2"]
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert main(["--x0", "-1,2", "--theta0", "-2,-1", "--csv", str(spaced)] + common) == 0
    assert main(["--x0=-1,2", "--theta0=-2,-1", "--csv", str(joined)] + common) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    capsys.readouterr()
    # a negative gain reaches the gain check, not an argparse error
    assert main(["--gamma", "-1,2"]) == 2
    assert "gamma values must be positive" in capsys.readouterr().err


def test_flag_missing_its_value_exits_2(capsys):
    for argv in (["--x0", "--horizon", "3"], ["--gamma", "-h"], ["--theta0"]):
        assert main(argv) == 2
        assert "expected one argument" in capsys.readouterr().err


def test_flags_must_be_spelled_in_full(capsys):
    # a prefix would dodge the negative-value join; no spelling of one is taken
    for argv in (["--theta", "-1,2"], ["--theta=-1,2"]):
        assert main(argv + ["--horizon", "0.01"]) == 2
        assert "unrecognized arguments: --theta" in capsys.readouterr().err
    assert main(["--theta0", "-1,2", "--horizon", "0.01"]) == 0


def test_main_rejects_bad_config_file(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("nope = 1\n")
    assert main(["--config", str(p)]) == 2
    capsys.readouterr()
    p.write_text("step = abc\n")
    assert main(["--config", str(p)]) == 2
    assert capsys.readouterr().err == (f"config error: {p}:1: step: "
                                       "could not convert string to float: 'abc'\n")


def test_main_divergence_exit_code(capsys):
    # a state past the norm guard; a gain too large for the step is refused
    # before the estimator runs instead (test_main_stiff_gain_exit_code)
    code = main(["--scenario", "c1", "--gamma", "1", "--x0", "1e13,0", "--horizon", "0.05"])
    assert code == 3
    assert "divergence" in capsys.readouterr().err


def test_main_stiff_gain_exit_code(tmp_path, capsys):
    # gamma 1000 passes RK4's stability region on c1 at t = 4.44 and used to
    # exit 0 with a wrong estimate; the sweep now stops with exit 2 naming
    # the gain and the step, and writes nothing
    out = tmp_path / "run.csv"
    code = main(["--scenario", "c1", "--gamma", "900,1000", "--horizon", "7", "--csv", str(out)])
    assert code == 2
    cap = capsys.readouterr()
    assert cap.err.startswith("config error: gamma 1000 with step 0.001 is past RK4's "
                              "stability region at t=4.44, ")
    assert "2.6 / max|lambda| = 0.0009019 is a safe step" in cap.err
    assert cap.out == "" and not out.exists()


def test_main_io_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "missing" / "out.csv"
    code = main(["--scenario", "c1", "--gamma", "1", "--horizon", "0.01",
                 "--csv", str(bad)])
    assert code == 4
    assert not bad.exists()


@pytest.mark.parametrize("flag", ["--csv", "--svg", "--pe-report"])
def test_missing_output_directory_is_refused_before_simulating(tmp_path, capsys, monkeypatch,
                                                               flag):
    def no_simulation(scenario):
        raise AssertionError("simulate was called")

    monkeypatch.setattr(cli, "simulate", no_simulation)
    bad = tmp_path / "missing" / "out.txt"
    assert main(["--horizon", "1", "--pe-window", "1", flag, str(bad)]) == 4
    cap = capsys.readouterr()
    assert cap.err == f"output error: no directory to write {bad} in\n" and cap.out == ""
    assert not list(tmp_path.iterdir())
    # an empty path would write nothing and exit 0, a directory would fail
    # only after the sweep: both are refused first, naming the path
    for bad in ("", str(tmp_path)):
        assert main(["--horizon", "1", "--pe-window", "1", flag, bad]) == 4
        cap = capsys.readouterr()
        assert cap.err == f"output error: output path {bad!r} is empty or a directory\n"
        assert cap.out == ""
    assert not list(tmp_path.iterdir())
    # two outputs at one path would overwrite one with the other: refused
    # first, as is the same file under another name; the message names the
    # path of the later output in the order csv, svg, pe-report
    monkeypatch.chdir(tmp_path)
    order = ["--csv", "--svg", "--pe-report"]
    for other, path in [(o, p) for o in order if o != flag for p in ("a.csv", "./a.csv")]:
        assert main(["--horizon", "1", "--pe-window", "1", flag, "a.csv", other, path]) == 4
        named = path if order.index(other) > order.index(flag) else "a.csv"
        cap = capsys.readouterr()
        assert cap.err == f"output error: output path {named!r} is given for two outputs\n"
        assert cap.out == ""
    assert not list(tmp_path.iterdir())


def test_main_pe_report(tmp_path, capsys):
    path = tmp_path / "pe.csv"
    code = main([
        "--scenario", "c1", "--gamma", "1", "--horizon", "4", "--step", "1e-2",
        "--pe-window", "2", "--pe-floor", "1e-4", "--pe-report", str(path),
    ])
    assert code == 0
    assert path.exists()
    out = capsys.readouterr().out
    assert "pe window=2" in out


def test_main_rejects_bad_input_before_simulating(tmp_path, capsys):
    assert main(["--horizon", "inf"]) == 2
    assert main(["--gamma", "1,nan"]) == 2
    assert main(["--x0=nan,0"]) == 2
    path = tmp_path / "pe.csv"
    assert main(["--pe-window", "5", "--horizon", "2", "--pe-report", str(path)]) == 2
    captured = capsys.readouterr()
    assert "simulated" not in captured.out
    assert "pe-window" in captured.err
    assert not path.exists()
    # the default window is only checked when a scan is asked for
    assert main(["--gamma", "1", "--horizon", "3", "--step", "1e-2"]) == 0


def _read_pe_report(path):
    lines = path.read_text().splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines])


def test_main_pe_report_c1_unchanged(tmp_path):
    # undelayed, the regressor is the output map C Phi the scan always read
    path = tmp_path / "pe.csv"
    args = ["--scenario", "c1", "--gamma", "1", "--horizon", "4", "--step", "1e-2",
            "--pe-window", "2", "--pe-report", str(path)]
    assert main(args) == 0
    res = simulate(builtin_scenario("c1", 1.0, horizon=4.0, step=1e-2))
    ref = pe_check(res.phi_history(), res.scenario.system.C, 2.0, 1e-4)
    table = _read_pe_report(path)
    assert np.array_equal(table[:, 0], ref.starts)
    assert np.array_equal(table[:, 1], ref.min_eig_output)
    assert np.array_equal(table[:, 2], ref.min_eig_regressor)


def test_main_pe_report_scans_delayed_regressor(tmp_path):
    path = tmp_path / "pe.csv"
    args = ["--scenario", "c2", "--gamma", "1", "--horizon", "4", "--step", "1e-2",
            "--pe-window", "2", "--pe-report", str(path)]
    assert main(args) == 0
    table = _read_pe_report(path)
    res = simulate(builtin_scenario("c2", 1.0, horizon=4.0, step=1e-2))
    for start, _, min_eig in table:
        # trapezoid of psi^T psi over the window's nodes, ends interpolated
        end = start + 2.0
        inside = (res.t > start) & (res.t < end)
        s = np.concatenate(([start], res.t[inside], [end]))
        psi = np.column_stack([np.interp(s, res.t, res.psi[:, i]) for i in range(2)])
        g = np.einsum("ki,kj->kij", psi, psi)
        G = np.einsum("k,kij->ij", 0.5 * np.diff(s), g[1:] + g[:-1])
        assert min_eig == pytest.approx(np.linalg.eigvalsh(G)[0], rel=1e-12, abs=1e-15)
    # the undelayed output map gives another scan on c2
    undelayed = pe_check(res.phi_history(), res.scenario.system.C, 2.0, 1e-4)
    assert np.abs(table[:, 2] - undelayed.min_eig_regressor).max() > 1e-3


def test_main_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "--scenario" in capsys.readouterr().out


def _run_python(*args):
    """A fresh interpreter with this checkout's gpebo first on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def test_module_entry_point_runs_without_warnings():
    # the package does not import gpebo.cli, so runpy finds it unloaded
    done = _run_python("-W", "error", "-m", "gpebo.cli", "--help")
    assert done.returncode == 0, done.stderr
    assert "--scenario" in done.stdout


_NUMPY_ONLY = """
import sys
import gpebo, gpebo.cli
from gpebo import builtin_scenario, delayed_pe_integral, liouville_det, pe_check, simulate

out = sys.argv[1]
code = gpebo.cli.main(["--scenario", "c3", "--estimator", "drem", "--gamma", "1,10",
                       "--horizon", "3", "--pe-window", "2", "--csv", out + "/s.csv",
                       "--svg", out + "/s.svg", "--pe-report", out + "/s.pe"])
assert code == 0, code
scenario = builtin_scenario("c2", 0.0, horizon=4.0)
res = simulate(scenario)
hist, C = res.phi_history(), scenario.system.C
pe_check(hist, C, 2.0, 1e-4)
delayed_pe_integral(hist, C, 0.0, 2.0, scenario.delay)
liouville_det(hist, scenario.system.A)
print("loaded:", *sorted(m for m in sys.modules
                         if m.split(".")[0] == "scipy" or m.startswith("numpy.ma.") or m == "numpy.ma"))
"""


def test_package_runs_on_numpy_alone(tmp_path):
    # pyproject declares numpy as the only dependency, and no run may load
    # scipy or numpy.ma (np.unique, for one, loads numpy.ma)
    done = _run_python("-c", _NUMPY_ONLY, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "loaded:"
    assert {p.name for p in tmp_path.iterdir()} == {"s.csv", "s.svg", "s.pe"}


def test_main_config_file_end_to_end(tmp_path):
    csv = tmp_path / "out.csv"
    p = tmp_path / "run.cfg"
    p.write_text(
        f"scenario = c2\ngamma = 5\nhorizon = 0.5\nstep = 1e-2\ncsv = {csv}\n"
    )
    assert main(["--config", str(p)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("t,gamma,")
    assert len(lines) == 1 + 51
