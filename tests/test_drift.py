"""tools/drift.py: how ``compare`` reads two trees' probed arrays."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("drift", ROOT / "tools" / "drift.py")
drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(drift)


def _compare(ref, new, capsys, bound=1e-12):
    ok = drift.compare(ref, new, bound)
    return ok, capsys.readouterr().out.splitlines()


def test_a_nan_or_inf_in_both_trees_is_no_change(capsys):
    # a stiff/* probe holds nan when its run runs: the same nan in both trees
    # used to read as max |d| nan, above every bound
    tree = {"stiff/a": np.array(np.nan), "run/c1/x": np.array([1.0, np.inf, np.nan, -np.inf])}
    ok, out = _compare(tree, {k: v.copy() for k, v in tree.items()}, capsys)
    assert ok
    assert out == ["run/x: max |d| 0 (all equal)", "stiff/a: max |d| 0 (all equal)",
                   "files: 0 of 0 byte for byte equal"]


def test_a_nan_in_one_tree_only_is_an_infinite_change(capsys):
    ok, out = _compare({"stiff/a": np.array(np.nan)}, {"stiff/a": np.array(0.25)}, capsys)
    assert not ok
    assert out[0] == "stiff/a: max |d| inf (stiff/a)  > bound 1e-12"
    ok, out = _compare({"run/c1/x": np.array([1.0, 2.0])},
                       {"run/c1/x": np.array([1.0, np.nan])}, capsys, bound=1e300)
    assert not ok
    assert out[0] == "run/x: max |d| inf (run/c1/x)  > bound 1e+300"


def test_differences_are_taken_where_neither_tree_holds_a_nan(capsys):
    ref = {"run/c1/x": np.array([np.nan, 1.0, 2.0]), "run/c2/x": np.array([0.0, 0.0, np.inf])}
    new = {"run/c1/x": np.array([np.nan, 1.5, 2.0]), "run/c2/x": np.array([0.0, 0.25, 1.0])}
    ok, out = _compare(ref, new, capsys, bound=1.0)
    assert not ok  # an inf against a finite value differs by inf
    assert out[0] == "run/x: max |d| inf (run/c2/x)  > bound 1"
    del ref["run/c2/x"], new["run/c2/x"]
    ok, out = _compare(ref, new, capsys, bound=0.5)
    assert ok
    assert out[0] == "run/x: max |d| 0.5 (run/c1/x)"
    ok, out = _compare(ref, new, capsys, bound=0.25)
    assert not ok
    assert out[0] == "run/x: max |d| 0.5 (run/c1/x)  > bound 0.25"


def test_a_key_in_one_tree_only_fails(capsys):
    ok, out = _compare({"run/c1/x": np.zeros(2)},
                       {"run/c1/x": np.zeros(2), "history/synthetic": np.zeros(3)}, capsys)
    assert not ok
    assert out[0] == "history/synthetic: only in this tree"
    ok, out = _compare({"run/c1/x": np.zeros(2), "stiff/a": np.zeros(())},
                       {"run/c1/x": np.zeros(2)}, capsys)
    assert not ok
    assert "stiff/a: only in the ref" in out


def test_a_shape_change_fails(capsys):
    ok, out = _compare({"run/c1/x": np.zeros((3, 2))}, {"run/c1/x": np.zeros((4, 2))}, capsys,
                       bound=1e300)
    assert not ok
    assert out[0] == "run/c1/x: shape (3, 2) -> (4, 2)"


def test_file_bytes_are_reported_not_bounded(capsys):
    same = np.frombuffer(b"t,x\n0,1\n", np.uint8)
    ref = {"bytes/c1-gradient.csv": same, "bytes/c1-gradient.svg": np.frombuffer(b"<a/>", np.uint8)}
    new = {"bytes/c1-gradient.csv": same.copy(),
           "bytes/c1-gradient.svg": np.frombuffer(b"<b/>", np.uint8)}
    ok, out = _compare(ref, new, capsys)
    assert ok
    assert out == ["files: 1 of 2 byte for byte equal; differ: c1-gradient.svg"]
    ok, out = _compare(ref, {**new, "bytes/c1-gradient.svg": ref["bytes/c1-gradient.svg"]},
                       capsys)
    assert ok
    assert out == ["files: 2 of 2 byte for byte equal"]


def test_memory_figures_are_reported_not_bounded(capsys):
    # traced bytes per node move with any change to what a run holds; they
    # are printed for both trees and never fail the comparison
    ref = {"run/c1/x": np.zeros(2), "memory/c1-drem-30s/peak": np.array(368.14),
           "memory/c1-drem-30s/kept": np.array(112.1)}
    new = {**ref, "memory/c1-drem-30s/peak": np.array(320.88)}
    ok, out = _compare(ref, new, capsys)
    assert ok
    assert out == ["run/x: max |d| 0 (all equal)", "files: 0 of 0 byte for byte equal",
                   "memory/c1-drem-30s/kept: 112.1 -> 112.1 B/node",
                   "memory/c1-drem-30s/peak: 368.1 -> 320.9 B/node"]
