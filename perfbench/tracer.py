"""In-memory span tracer for the traced run.

gpebo is instrumented from outside: :func:`instrumented` swaps the
package's public functions, the ``TrajectoryHistory`` and
``SimulationResult`` members and the scenario's ``A/B/C/u`` callables for
timing wrappers, and puts the originals back on exit.  Every wrapped name
aggregates its call count, inclusive time and self time (inclusive time
minus the time of traced calls it made).  Coarse calls also keep a span
record ``(id, parent, name, start, end)``; the hot per-stage calls are
aggregated only, since a traced pass makes about a million of them.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace


class Tracer:
    def __init__(self):
        self.stats = {}     # name -> [calls, inclusive_s, self_s]
        self.counters = {}  # name -> count
        self.spans = []     # (id, parent id, name, start_s, end_s)
        self._stack = [[0.0, 0]]  # frames: [traced child time, span id]
        self._next_id = 1
        self._origin = time.perf_counter()

    def count(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, span: bool = False, after=None):
        """Return ``fn`` timed under ``name``; ``after(tracer, result, args)``
        runs outside the timed interval to update counters."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if span:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                parent[0] += dur
                if span:
                    self.spans.append(
                        (sid, parent[1], name, start - self._origin, end - self._origin)
                    )
            if after is not None:
                after(self, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def record(self) -> dict:
        return {
            "functions": {
                name: {"calls": c, "inclusive_s": inc, "self_s": own}
                for name, (c, inc, own) in sorted(self.stats.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "spans": [
                {"id": i, "parent": p, "name": n, "start_s": s, "end_s": e}
                for i, p, n, s, e in self.spans
            ],
        }


class _Patches:
    """Attribute swaps that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, old))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def plain_api():
    """The entry points the workloads call, untraced."""
    import gpebo
    import gpebo.cli

    return SimpleNamespace(
        cli_main=gpebo.cli.main,
        builtin_scenario=gpebo.builtin_scenario,
        simulate=gpebo.simulate,
        pe_check=gpebo.pe_check,
        delayed_pe_integral=gpebo.delayed_pe_integral,
        liouville_det=gpebo.liouville_det,
    )


def _count_nodes(tracer, result, args):
    tracer.count("integrate.nodes", len(result.t))


def _count_bytes(name):
    def after(tracer, result, args):
        tracer.count(name, os.path.getsize(args[1]))

    return after


@contextmanager
def instrumented(tracer: Tracer):
    """Install timing wrappers on gpebo and yield the traced entry points."""
    import gpebo.cli as cli
    import gpebo.excitation as excitation
    import gpebo.history as history
    import gpebo.integrate as integrate
    import gpebo.model as model
    import gpebo.oracle as oracle

    w = tracer.wrap
    patches = _Patches()
    try:
        TH = history.TrajectoryHistory
        patches.set(TH, "sample", w("history.sample", TH.sample))
        patches.set(TH, "append", w("history.append", TH.append))
        from_grid = TH.__dict__["from_grid"].__func__
        patches.set(TH, "from_grid", classmethod(w("history.from_grid", from_grid, span=True)))
        patches.set(model.DelaySpec, "__call__", w("model.delay", model.DelaySpec.__call__))
        SR = integrate.SimulationResult
        patches.set(SR, "xhat", property(w("integrate.xhat", SR.__dict__["xhat"].fget)))

        # The integrator and the CLI call these through their own module
        # namespaces, so the wrappers go there.
        for attr, name in (
            ("gradient_update", "observer.gradient_update"),
            ("extend_regressor", "drem.extend_regressor"),
            ("mix", "drem.mix"),
            ("drem_update", "drem.drem_update"),
        ):
            patches.set(integrate, attr, w(name, getattr(integrate, attr)))
        patches.set(excitation, "pe_integral", w("excitation.pe_integral", excitation.pe_integral))

        coef = {}

        def build_scenario(*args, **kwargs):
            scenario = model.builtin_scenario(*args, **kwargs)
            system = scenario.system
            wrapped = {}
            for key in ("A", "B", "C", "u"):
                fn = getattr(system, key)
                if fn not in coef:
                    coef[fn] = w("model.coef", fn)
                wrapped[key] = coef[fn]
            return replace(scenario, system=replace(system, **wrapped))

        api = SimpleNamespace(
            cli_main=w("cli.main", cli.main, span=True),
            builtin_scenario=build_scenario,
            simulate=w("integrate.simulate", integrate.simulate, span=True, after=_count_nodes),
            pe_check=w("excitation.pe_check", excitation.pe_check, span=True),
            delayed_pe_integral=w("excitation.delayed_pe_integral",
                                  excitation.delayed_pe_integral, span=True),
            liouville_det=w("oracle.liouville_det", oracle.liouville_det, span=True),
        )
        patches.set(cli, "builtin_scenario", build_scenario)
        patches.set(cli, "simulate", api.simulate)
        patches.set(cli, "pe_check", api.pe_check)
        patches.set(cli, "assemble_config", w("cli.assemble_config", cli.assemble_config,
                                              span=True))
        patches.set(cli, "run", w("cli.run", cli.run, span=True))
        patches.set(cli, "emit_csv", w("report.emit_csv", cli.emit_csv, span=True,
                                       after=_count_bytes("report.csv_bytes")))
        patches.set(cli, "emit_svg", w("report.emit_svg", cli.emit_svg, span=True,
                                       after=_count_bytes("report.svg_bytes")))
        yield api
    finally:
        patches.restore()


# Per-layer metrics read from one traced pass: name -> (unit, better, reader).
LAYER_METRICS = {
    "model.coef_calls": ("count", "lower", lambda t: t.calls("model.coef")),
    "model.coef_s": ("s", "lower", lambda t: t.inclusive("model.coef")),
    "model.delay_calls": ("count", "lower", lambda t: t.calls("model.delay")),
    "history.sample_calls": ("count", "lower", lambda t: t.calls("history.sample")),
    "history.sample_s": ("s", "lower", lambda t: t.inclusive("history.sample")),
    "history.append_calls": ("count", "lower", lambda t: t.calls("history.append")),
    "history.append_s": ("s", "lower", lambda t: t.inclusive("history.append")),
    "history.from_grid_s": ("s", "lower", lambda t: t.inclusive("history.from_grid")),
    "integrate.simulate_s": ("s", "lower", lambda t: t.inclusive("integrate.simulate")),
    "integrate.self_s": ("s", "lower", lambda t: t.self_time("integrate.simulate")),
    "integrate.nodes": ("count", "higher", lambda t: t.counters.get("integrate.nodes", 0)),
    "observer.update_calls": ("count", "lower", lambda t: t.calls("observer.gradient_update")),
    "observer.update_s": ("s", "lower", lambda t: t.inclusive("observer.gradient_update")),
    "drem.extend_calls": ("count", "lower", lambda t: t.calls("drem.extend_regressor")),
    "drem.extend_s": ("s", "lower", lambda t: t.inclusive("drem.extend_regressor")),
    "drem.mix_s": ("s", "lower", lambda t: t.inclusive("drem.mix")),
    "drem.update_s": ("s", "lower", lambda t: t.inclusive("drem.drem_update")),
    "excitation.windows": ("count", "higher", lambda t: t.calls("excitation.pe_integral")
                           + t.calls("excitation.delayed_pe_integral")),
    "excitation.pe_check_s": ("s", "lower", lambda t: t.inclusive("excitation.pe_check")),
    "excitation.delayed_calls": ("count", "higher",
                                 lambda t: t.calls("excitation.delayed_pe_integral")),
    "excitation.delayed_s": ("s", "lower",
                             lambda t: t.inclusive("excitation.delayed_pe_integral")),
    "oracle.liouville_s": ("s", "lower", lambda t: t.inclusive("oracle.liouville_det")),
    "report.csv_s": ("s", "lower", lambda t: t.inclusive("report.emit_csv")),
    "report.csv_bytes": ("bytes", "lower", lambda t: t.counters.get("report.csv_bytes", 0)),
    "report.svg_s": ("s", "lower", lambda t: t.inclusive("report.emit_svg")),
    "report.svg_bytes": ("bytes", "lower", lambda t: t.counters.get("report.svg_bytes", 0)),
    "report.xhat_evals": ("count", "lower", lambda t: t.calls("integrate.xhat")),
    "cli.config_s": ("s", "lower", lambda t: t.inclusive("cli.assemble_config")),
    "cli.run_s": ("s", "lower", lambda t: t.inclusive("cli.run")),
}


def layer_metrics(tracers) -> dict:
    """Each per-layer metric of the traced passes, the lower median so
    that a count stays a whole number."""
    return {
        name: statistics.median_low(read(t) for t in tracers)
        for name, (unit, better, read) in LAYER_METRICS.items()
    }
