"""tools/bench.py: how a section counts the pairs a change won."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

METRICS = [
    {"name": "run_steps_per_s", "unit": "1/s", "better": "higher"},
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "setup_s", "unit": "s", "better": "lower"},
]


def _record(rate, wall, setup, failed=0, correct=True):
    values = {"run_steps_per_s": rate, "wall_s": wall, "setup_s": setup}
    return {"metrics": {k: {"value": v} for k, v in values.items()},
            "attempted": 10, "failed": failed, "correct": correct}


def test_summarize_counts_pairs_in_order_and_gaps_over_the_parent_spread():
    records = {
        "parent": [_record(100, 1.0, 0.1), _record(100, 2.0, 0.1), _record(120, 3.0, 0.1)],
        "change": [_record(150, 0.5, 0.1), _record(100, 2.0, 0.2, failed=1),
                   _record(110, 2.5, 0.05, correct=False)],
    }
    out = bench.summarize(records, METRICS)
    assert out["pairs"] == 3
    rate, wall, setup = (out["end_to_end"][m["name"]] for m in METRICS)

    # higher is better: pair 1 won, pair 2 tied (counted for neither), pair 3
    # lost; pairing the runs out of order would count 2
    assert rate["change_better_in_pairs"] == 1
    assert (rate["parent"]["q1"], rate["parent"]["median"], rate["parent"]["q3"]) == (100, 100, 110)
    assert rate["change"]["median"] == 110
    assert rate["ratio_change_over_parent"] == pytest.approx(1.1)
    assert rate["median_gap_over_parent_iqr"] == pytest.approx(1.0)

    # lower is better: pairs 1 and 3 won, pair 2 tied; the sign turned round
    # would count 1
    assert wall["change_better_in_pairs"] == 2
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == (1.5, 2.5)
    assert wall["median_gap_over_parent_iqr"] == 0.0

    # a parent with no spread leaves the gap undefined
    assert setup["change_better_in_pairs"] == 1
    assert setup["median_gap_over_parent_iqr"] is None

    assert out["operations"] == {
        "parent": {"attempted": 30, "failed": 0, "all_correct": True},
        "change": {"attempted": 30, "failed": 1, "all_correct": False},
    }
    assert rate["parent"]["runs"] == [100, 100, 120]
    assert rate["change"]["runs"] == [150, 100, 110]


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_fewer_than_one_pair_is_refused_before_anything_runs(tmp_path, capsys, pairs):
    # zero pairs would run nothing and write no --out
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench.main(["--against", "HEAD", "--out", str(out), "--pairs", pairs])
    assert exc.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_an_undeclared_workload_is_refused_before_anything_runs(tmp_path, capsys):
    # a name BENCHMARK.json does not declare used to extract and run the
    # parent tree first, then die in its perfbench/run.py
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench.main(["--against", "HEAD", "--out", str(out), "--workload", "drem-track",
                    "--workload", "dremtrack"])
    assert exc.value.code == 2
    assert "unknown workload 'dremtrack'" in capsys.readouterr().err
    assert not out.exists()


LAYERS = [
    {"name": "model.coef_calls", "unit": "count", "better": "lower"},
    {"name": "drem.mix_s", "unit": "s", "better": "lower"},
    {"name": "observer.update_s", "unit": "s", "better": "lower"},
    {"name": "report.csv_s", "unit": "s", "better": "lower"},
    {"name": "cli.run_s", "unit": "s", "better": "lower"},
]


def _traced(**values):
    return {"metrics": {k: {"value": v} for k, v in values.items()}, "correct": True}


def test_layers_list_a_name_that_reads_zero_on_both_trees_as_unmeasured():
    records = {
        "parent": [_traced(**{"model.coef_calls": 36, "drem.mix_s": 0.0, "observer.update_s": 0.0,
                              "report.csv_s": 0.02, "cli.run_s": 0.3}),
                   _traced(**{"model.coef_calls": 36, "drem.mix_s": 0.0, "observer.update_s": 0.0,
                              "report.csv_s": 0.04, "cli.run_s": 0.5})],
        # drem.mix_s reads 0 on the parent only; cli.run_s is absent from one run
        "change": [_traced(**{"model.coef_calls": 12, "drem.mix_s": 0.001,
                              "observer.update_s": 0.0, "report.csv_s": 0.03}),
                   _traced(**{"model.coef_calls": 12, "drem.mix_s": 0.003,
                              "observer.update_s": 0.0, "report.csv_s": 0.03, "cli.run_s": 0.2})],
    }
    out = bench.summarize_layers(records, LAYERS)
    assert out["runs"] == 2
    # all 0 on both trees: nothing that runs, so no figure, not a 0
    assert out["unmeasured"] == ["observer.update_s"]
    assert "observer.update_s" not in out["metrics"]
    assert out["missing"] == {"parent": [], "change": ["cli.run_s"]}
    coef = out["metrics"]["model.coef_calls"]
    assert (coef["parent"]["median"], coef["change"]["median"]) == (36, 12)
    assert coef["ratio_change_over_parent"] == pytest.approx(1.0 / 3.0)
    assert coef["unit"] == "count" and coef["better"] == "lower"
    # a 0 on one tree is a measurement: the change made the call
    mix = out["metrics"]["drem.mix_s"]
    assert mix["parent"]["runs"] == [0.0, 0.0] and mix["change"]["median"] == pytest.approx(0.002)
    assert mix["ratio_change_over_parent"] is None
    assert out["metrics"]["report.csv_s"]["parent"]["median"] == pytest.approx(0.03)
    assert out["metrics"]["cli.run_s"]["change"]["runs"] == [0.2]
    lines = bench.describe("workloads", {"gradient-sweep": {
        "pairs": 2, "end_to_end": {}, "layers": out}})
    assert "workloads gradient-sweep layer model.coef_calls: 36 -> 12 count" in lines
    assert lines[-1] == ("workloads gradient-sweep layers unmeasured (0 on both trees): "
                         "observer.update_s")


def test_machine_states_whether_bytecode_was_cached(monkeypatch):
    # any non-empty PYTHONDONTWRITEBYTECODE stops Python writing bytecode,
    # as Python reads it; then every run compiles src/gpebo anew
    for value, cached in (("1", False), ("x", False), ("", True), (None, True)):
        if value is None:
            monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        else:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
        assert bench.machine()["bytecode_cached"] is cached
