"""Delimited output and figure rendering for simulation sweeps.

A sweep holds one simulation per gain value.  The CSV emitter writes every
run in a single flat table (one block per gain, ascending), formatting
floats with 17 significant digits so values survive a parse round trip
bit for bit.  The figure emitter renders the state estimation error per
component as a standalone SVG document with exactly one polyline per gain
and no run-dependent metadata, so identical sweeps produce identical
bytes.  All writers go through a temporary file in the destination
directory and rename into place, leaving the mode ``open(path, "w")``
would: the old file's, or 0666 less the umask for a new one.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

import numpy as np

from .excitation import ExcitationReport

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

SVG_MAX_POINTS = 2000
# rows per block of CSV text
_CSV_BLOCK = 256


@dataclass
class RunResult:
    """One CLI invocation's worth of simulations, one per gain value."""

    scenario_id: str
    estimator: str
    gammas: list
    runs: list
    duration: float

    def __post_init__(self):
        if not self.runs or len(self.gammas) != len(self.runs):
            raise ValueError("need one simulation per gamma")
        for gamma, run in zip(self.gammas, self.runs):
            if gamma != run.scenario.gamma:
                raise ValueError(f"gamma {gamma!r} labels a run at gamma {run.scenario.gamma!r}")

    def ordered(self):
        """(gamma, run) pairs sorted by ascending gamma."""
        return sorted(zip(self.gammas, self.runs), key=lambda p: p[0])


def _atomic_text(path: str, writer) -> None:
    # made by open, so a new file takes the umask; copymode keeps an old file's mode
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"tmp{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "x", newline="\n") as fh:
            writer(fh)
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def csv_header(n: int) -> str:
    cols = ["t", "gamma"]
    for base in ("x", "xhat", "e", "theta", "thetahat"):
        cols.extend(f"{base}{i + 1}" for i in range(n))
    return ",".join(cols)


def emit_csv(result: RunResult, path: str) -> None:
    """Write the sweep as one flat CSV table, blocks ordered by gamma.

    Every value is written as ``format(v, ".17g")`` writes it.  Each gain's
    row template holds its ``gamma`` and ``theta`` text; ``t`` and ``x`` are
    formatted once and reused while a run's ``t`` and ``x`` have the bits
    of the previous run's (no gain moves the plant).  The other columns
    fill the template with one ``%`` call per ``_CSV_BLOCK`` rows.
    """
    n = result.runs[0].x.shape[1]
    vec = ",".join(["%.17g"] * n)
    m = 2 + 3 * n  # values per row: t text, x text, xhat, e, theta_hat

    def writer(fh):
        fh.write(csv_header(n) + "\n")
        plant = None
        for gamma, run in result.ordered():
            key = (run.x.shape, run.t.tobytes(), run.x.tobytes())
            if key != plant:  # texts[lo]: the t and x text of block lo's rows, interleaved
                plant, tx, texts = key, np.column_stack([run.t, run.x]), {}
            theta = vec % tuple(np.asarray(run.theta, float).tolist())
            row = f"%s,{float(gamma):.17g},%s,{','.join(['%.17g'] * (2 * n))},{theta},{vec}\n"
            xhat = run.xhat
            table = np.column_stack([xhat, run.x - xhat, run.theta_hat])
            for lo in range(0, len(run.t), _CSV_BLOCK):
                block = table[lo:lo + _CSV_BLOCK]
                if lo not in texts:
                    values = tuple(tx[lo:lo + _CSV_BLOCK].ravel().tolist())
                    texts[lo] = (f"%.17g\n{vec}\n" * len(block) % values).split("\n")
                args = [None] * (len(block) * m)
                args[0::m], args[1::m] = texts[lo][:-1:2], texts[lo][1::2]
                for j, col in enumerate(block.T.tolist()):
                    args[2 + j::m] = col
                fh.write(row * len(block) % tuple(args))

    _atomic_text(path, writer)


def _thin(N: int) -> np.ndarray:
    idx = np.arange(0, N, int(np.ceil(N / SVG_MAX_POINTS)))
    if idx[-1] != N - 1:
        idx = np.append(idx, N - 1)
    return idx


def emit_svg(result: RunResult, path: str) -> None:
    """Render per-component estimation error curves, one polyline per gamma.

    Long runs are thinned to at most ``SVG_MAX_POINTS`` vertices per curve
    (always keeping the final sample).  The document is self-contained and
    carries no timestamps or other nondeterministic content.
    """
    pairs = result.ordered()
    n = pairs[0][1].x.shape[1]
    t_lo = min(float(run.t[0]) for _, run in pairs)
    t_hi = max(float(run.t[-1]) for _, run in pairs)

    width = 960
    left, right, top, bottom = 70, 190, 48, 56
    panel_h, panel_gap = 240, 58
    plot_w = width - left - right
    height = top + n * panel_h + (n - 1) * panel_gap + bottom

    parts = []
    parts.append('<?xml version="1.0" encoding="UTF-8" standalone="no"?>')
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">'
    )
    parts.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')
    title = f"{result.scenario_id} / {result.estimator}: state estimation error"
    parts.append(f'<text x="{left}" y="24" font-size="14">{title}</text>')

    errors = [run.estimation_error for _, run in pairs]
    for comp in range(n):
        py = top + comp * (panel_h + panel_gap)
        errs = [e[:, comp] for e in errors]
        y_lo = min(float(e.min()) for e in errs)
        y_hi = max(float(e.max()) for e in errs)
        if y_hi - y_lo < 1e-300:
            pad = max(abs(y_lo), 1.0) * 0.1
        else:
            pad = 0.04 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        def sx(tv):
            return left + (tv - t_lo) / (t_hi - t_lo) * plot_w

        def sy(yv):
            return py + (y_hi - yv) / (y_hi - y_lo) * panel_h

        parts.append(f'<g id="panel-e{comp + 1}">')
        parts.append(
            f'<rect x="{left}" y="{py}" width="{plot_w}" height="{panel_h}" '
            'fill="none" stroke="#222222" stroke-width="1"/>'
        )
        for tv in np.linspace(t_lo, t_hi, 6):
            x = sx(tv)
            parts.append(
                f'<line x1="{x:.2f}" y1="{py + panel_h}" x2="{x:.2f}" '
                f'y2="{py + panel_h + 5}" stroke="#222222" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{x:.2f}" y="{py + panel_h + 18}" '
                f'text-anchor="middle">{tv:g}</text>'
            )
        for yv in np.linspace(y_lo, y_hi, 5):
            y = sy(yv)
            parts.append(
                f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" '
                'stroke="#222222" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{left - 8}" y="{y + 4:.2f}" '
                f'text-anchor="end">{yv:.3g}</text>'
            )
        parts.append(
            f'<text x="{left}" y="{py - 8}">x{comp + 1} - xhat{comp + 1}</text>'
        )
        if comp == n - 1:
            parts.append(
                f'<text x="{left + plot_w / 2:.2f}" y="{py + panel_h + 38}" '
                'text-anchor="middle">t</text>'
            )
        for ci, ((gamma, run), err) in enumerate(zip(pairs, errs)):
            color = _PALETTE[ci % len(_PALETTE)]
            idx = _thin(len(run.t))
            xy = np.column_stack([sx(run.t[idx]), sy(err[idx])])
            pts = " ".join(["%.2f,%.2f"] * len(idx)) % tuple(xy.ravel().tolist())
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
                f'points="{pts}"/>'
            )
        parts.append("</g>")

    lx = left + plot_w + 16
    parts.append('<g id="legend">')
    for ci, (gamma, _) in enumerate(pairs):
        color = _PALETTE[ci % len(_PALETTE)]
        y = top + 14 + 18 * ci
        parts.append(
            f'<line x1="{lx}" y1="{y - 4}" x2="{lx + 22}" y2="{y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{y}">gamma={gamma:g}</text>')
    parts.append("</g>")
    parts.append("</svg>")
    _atomic_text(path, lambda fh: fh.write("\n".join(parts) + "\n"))


def format_pe_summary(report: ExcitationReport) -> str:
    """Single-line human summary of an excitation scan."""
    return (
        f"pe window={report.window:g} floor={report.delta_floor:g} "
        f"windows={len(report.starts)} "
        f"output: delta={report.delta_output:.6g} holds={report.pe_output} "
        f"regressor: delta={report.delta_regressor:.6g} holds={report.pe_regressor}"
    )


def write_pe_report(report: ExcitationReport, path: str) -> None:
    """Write the per-window minimum eigenvalues as a small CSV table."""

    rows = np.column_stack([report.starts, report.min_eig_output, report.min_eig_regressor])

    def writer(fh):
        fh.write("window_start,min_eig_output,min_eig_regressor\n")
        fh.write("%.17g,%.17g,%.17g\n" * len(rows) % tuple(rows.ravel().tolist()))

    _atomic_text(path, writer)
