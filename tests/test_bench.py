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
