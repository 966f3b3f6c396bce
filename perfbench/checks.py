"""Output checks: each takes program outputs and returns a list of faults.

An empty list means the check passed.  Every check compares against a
property the method must have or against a value computed here or in
``reference.py``, never against a stored copy of earlier output.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

_SVG = "{http://www.w3.org/2000/svg}"

GRID_TOL = 1e-9          # |t_k - k h|
IDENTITY_TOL = 1e-9      # |x - xi + Phi theta| / max(1, |x|)
DET_TOL = 1e-9           # |det Phi - 1|
REFERENCE_TOL = 1e-8     # |x - x_ref|, |Phi - Phi_ref| (RK4 at h = 1e-3)
MONOTONE_TOL = 1e-9      # largest per-step increase of a Lyapunov function
ESTIMATE_TOL = 1e-5      # |theta_hat - theta_hat_ref| / max(1, |theta|), see below
XHAT_TOL = 1e-12         # |xhat - (xi - Phi theta_hat)| / max(1, |xi|)
SVG_TOL = 0.006          # vertex residual in px (coordinates print with 2 decimals)
GRAMIAN_TOL = 1e-5       # |lambda_min - lambda_min_ref| / max(1, lambda_max_ref)
DELAYED_TOL = 1e-4       # Frobenius relative error of a delayed Gramian
ROUNDING_TOL = 1e-12     # asymmetry, negative eigenvalue of a delayed Gramian, / |G|
# ESTIMATE_TOL: against the DOP853 estimator solutions of reference.py the
# RK4 runs at h = 1e-3 measured at most 1.4e-6 (c3, gamma = 100) on seeds
# 1-3, while a gain off by 1% moves theta_hat by 2.5e-4 or more.


def _fault(name, value, bound):
    return [f"{name}: {value:.3e} > {bound:.0e}"] if not value <= bound else []


def xhat_apart(res) -> np.ndarray:
    """xi - Phi theta_hat, formed here rather than by gpebo."""
    return res.xi - np.matmul(res.Phi, res.theta_hat[:, :, None])[:, :, 0]


def grid(res, step: float):
    k = np.arange(len(res.t))
    return _fault("grid |t_k - k h|", float(np.abs(res.t - k * step).max()), GRID_TOL)


def reconstruction_identity(res, theta):
    """x - xi + Phi theta = 0 at every node, theta = xi(0) - x(0)."""
    resid = res.x - res.xi + np.matmul(res.Phi, np.asarray(theta))
    scale = max(1.0, float(np.abs(res.x).max()))
    return _fault("identity |x - xi + Phi theta|", float(np.abs(resid).max()) / scale,
                  IDENTITY_TOL)


def det_one(Phi):
    """det Phi = 1 at every node, since trace A = 0."""
    det = Phi[:, 0, 0] * Phi[:, 1, 1] - Phi[:, 0, 1] * Phi[:, 1, 0]
    return _fault("|det Phi - 1|", float(np.abs(det - 1.0).max()), DET_TOL)


def matches_reference(res, ref):
    """x and Phi agree with the DOP853 reference at the grid nodes."""
    faults = _fault("|x - x_ref|", float(np.abs(res.x - ref.x(res.t)).max()), REFERENCE_TOL)
    faults += _fault("|Phi - Phi_ref|", float(np.abs(res.Phi - ref.Phi(res.t)).max()),
                     REFERENCE_TOL)
    return faults


def gradient_lyapunov(res, theta, gamma: float):
    """|theta_err|^2 / gamma never increases along a gradient run."""
    V = ((res.theta_hat - np.asarray(theta)) ** 2).sum(axis=1) / gamma
    return _fault("gradient Lyapunov increase", float(np.diff(V).max()), MONOTONE_TOL)


def drem_monotone(res, theta):
    """Each |theta_err_i| never increases along a DREM run."""
    err = np.abs(res.theta_hat - np.asarray(theta))
    return _fault("DREM |theta_err_i| increase", float(np.diff(err, axis=0).max()),
                  MONOTONE_TOL)


def matches_estimate(res, theta_hat_ref, theta):
    """theta_hat follows the reference solution of the estimator's error
    equation at every node."""
    scale = max(1.0, float(np.abs(np.asarray(theta)).max()))
    return _fault("|theta_hat - theta_hat_ref|",
                  float(np.abs(res.theta_hat - theta_hat_ref).max()) / scale, ESTIMATE_TOL)


def drem_converges(res, theta_hat_ref, theta):
    """Each |theta_err_i| ends strictly below where it started, and the
    final estimate matches the reference's final value.

    Only the final value is compared: at the first extension lag
    Delta jumps from 0, which fixed-step RK4 resolves to O(h) only.
    """
    err = res.theta_hat - np.asarray(theta)
    start, end = np.abs(err[0]), np.abs(err[-1])
    faults = [f"DREM |theta_err_{i + 1}| {e:.3e} not below its start {s:.3e}"
              for i, (s, e) in enumerate(zip(start, end)) if s > 0.0 and not e < s]
    gap = np.abs(res.theta_hat[-1] - theta_hat_ref[-1]) / np.maximum(1.0, start)
    return faults + _fault("DREM final |theta_hat - theta_hat_ref|", float(gap.max()),
                           ESTIMATE_TOL)


def frozen(res):
    """gamma = 0 leaves theta_hat at its initial value."""
    return [] if np.all(res.theta_hat == res.theta_hat[0]) else ["theta_hat moved at gamma=0"]


def csv_round_trip(path: str, runs, theta):
    """The CSV parses back to the run's arrays bit for bit.

    ``runs`` is a list of ``(gamma, result)`` in ascending gamma.  The
    xhat and error columns are also held against ``xhat_apart``.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        table = np.array([[float(v) for v in line.split(",")] for line in fh])
    if len(header) != 12 or table.shape[1] != 12:
        return [f"csv: expected 12 columns, got {len(header)}"]
    faults = []
    row = 0
    for gamma, res in runs:
        N = len(res.t)
        block = table[row:row + N]
        row += N
        if len(block) != N:
            return faults + [f"csv: gamma={gamma:g} block has {len(block)} of {N} rows"]
        exact = {
            "t": (block[:, 0], res.t),
            "gamma": (block[:, 1], np.full(N, float(gamma))),
            "x": (block[:, 2:4], res.x),
            "xhat": (block[:, 4:6], res.xhat),
            "e": (block[:, 6:8], res.estimation_error),
            "theta": (block[:, 8:10], np.tile(np.asarray(theta), (N, 1))),
            "thetahat": (block[:, 10:12], res.theta_hat),
        }
        faults += [f"csv: gamma={gamma:g} {name} not bit-exact"
                   for name, (got, want) in exact.items() if not np.array_equal(got, want)]
        apart = xhat_apart(res)
        scale = max(1.0, float(np.abs(res.xi).max()))
        faults += _fault(f"csv: gamma={gamma:g} |xhat - (xi - Phi theta_hat)|",
                         float(np.abs(block[:, 4:6] - apart).max()) / scale, XHAT_TOL)
        faults += _fault(f"csv: gamma={gamma:g} |e - (x - xhat)|",
                         float(np.abs(block[:, 6:8] - (res.x - apart)).max()) / scale,
                         XHAT_TOL)
    if row != len(table):
        faults.append(f"csv: {len(table) - row} rows beyond the last block")
    return faults


def _thin(N: int, limit: int = 2000) -> np.ndarray:
    """Vertex indices of a curve of N samples: every node up to ``limit``,
    else every ceil(N / limit)-th node plus the last one."""
    if N <= limit:
        return np.arange(N)
    idx = np.arange(0, N, math.ceil(N / limit))
    return idx if idx[-1] == N - 1 else np.append(idx, N - 1)


def _affine_residual(u: np.ndarray, v: np.ndarray):
    """Fit v = a + b u by least squares; return (b, largest |residual|)."""
    design = np.column_stack([np.ones_like(u), u])
    coef, *_ = np.linalg.lstsq(design, v, rcond=None)
    return float(coef[1]), float(np.abs(design @ coef - v).max())


def svg_vertices(path: str, runs):
    """Each panel's polylines are an affine image of (t, x - xhat).

    The error is formed here as ``x - (xi - Phi theta_hat)``.  Within a
    panel all gains share one map, so the screen x must be an increasing
    affine function of t and the screen y a decreasing affine function of
    the error, to within the 2-decimal rounding of the coordinates.
    """
    root = ET.parse(path).getroot()
    faults = []
    n = runs[0][1].x.shape[1]
    for comp in range(n):
        panel = root.find(f"{_SVG}g[@id='panel-e{comp + 1}']")
        if panel is None:
            faults.append(f"svg: panel-e{comp + 1} missing")
            continue
        lines = panel.findall(f"{_SVG}polyline")
        if len(lines) != len(runs):
            faults.append(f"svg: panel-e{comp + 1} has {len(lines)} curves, want {len(runs)}")
            continue
        ts, es, xs, ys = [], [], [], []
        for line, (gamma, res) in zip(lines, runs):
            pts = np.array([p.split(",") for p in line.get("points").split()], dtype=float)
            idx = _thin(len(res.t))
            if len(pts) != len(idx):
                faults.append(f"svg: gamma={gamma:g} e{comp + 1} has {len(pts)} vertices, "
                              f"want {len(idx)}")
                continue
            ts.append(res.t[idx])
            es.append((res.x - xhat_apart(res))[idx, comp])
            xs.append(pts[:, 0])
            ys.append(pts[:, 1])
        if faults:
            continue
        bx, rx = _affine_residual(np.concatenate(ts), np.concatenate(xs))
        by, ry = _affine_residual(np.concatenate(es), np.concatenate(ys))
        if not (bx > 0.0 and by < 0.0):
            faults.append(f"svg: panel-e{comp + 1} axes not oriented (slopes {bx:.3g}, {by:.3g})")
        faults += _fault(f"svg: panel-e{comp + 1} |x_px - map(t)|", rx, SVG_TOL)
        faults += _fault(f"svg: panel-e{comp + 1} |y_px - map(x - xhat)|", ry, SVG_TOL)
    return faults


def pe_report_matches(report, gramians, floor: float):
    """pe_check's smallest eigenvalues match the reference Gramians, and
    the benchmark plant is persistently exciting.

    ``gramians(start, T)`` returns the reference (output, regressor) pair.
    """
    worst = 0.0
    ref_min = math.inf
    for start, mq, mn in zip(report.starts, report.min_eig_output, report.min_eig_regressor):
        G_q, G_n = gramians(float(start), report.window)
        eig_q = np.linalg.eigvalsh(G_q)
        eig_n = np.linalg.eigvalsh(G_n)
        scale = max(1.0, float(eig_n[-1]))
        worst = max(worst, abs(mq - eig_q[0]) / scale, abs(mn - eig_n[0]) / scale)
        ref_min = min(ref_min, float(eig_q[0]), float(eig_n[0]))
    faults = _fault(f"pe_check T={report.window:g} eigenvalues vs reference", worst,
                    GRAMIAN_TOL)
    if not (report.pe_output and report.pe_regressor and ref_min >= floor):
        faults.append(f"pe_check T={report.window:g}: PE does not hold "
                      f"(reference min eigenvalue {ref_min:.3e}, floor {floor:g})")
    return faults


def delayed_error(G, G_ref) -> float:
    """Frobenius relative error of a delayed Gramian against its reference."""
    return float(np.linalg.norm(np.asarray(G) - G_ref) / np.linalg.norm(G_ref))


def delayed_window(G, G_time, G_formula):
    """Classify one ``delayed_pe_integral`` window: ``(faults, failed)``.

    The window passes if it matches the time-domain Gramian ``G_time``.
    If it matches only ``G_formula``, the function's own documented
    delay-domain formula, it is the known weighting defect: a failed
    operation, not a fault.  A window that matches neither, or is not a
    finite symmetric positive semidefinite matrix, is a fault.
    """
    G = np.asarray(G, dtype=float)
    if G.shape != G_time.shape or not np.all(np.isfinite(G)):
        return [f"delayed Gramian not finite or of shape {G_time.shape}"], False
    norm = float(np.linalg.norm(G))
    faults = _fault("delayed Gramian asymmetry |G - G^T| / |G|",
                    float(np.abs(G - G.T).max()) / norm if norm else 0.0, ROUNDING_TOL)
    low = float(np.linalg.eigvalsh(0.5 * (G + G.T))[0])
    if low < -ROUNDING_TOL * norm:
        faults.append(f"delayed Gramian not positive semidefinite (eigenvalue {low:.3e})")
    if delayed_error(G, G_time) <= DELAYED_TOL:
        return faults, False
    if delayed_error(G, G_formula) <= DELAYED_TOL:
        return faults, True
    return faults + [f"delayed Gramian off both references (relative errors "
                     f"{delayed_error(G, G_time):.3g}, {delayed_error(G, G_formula):.3g})"], False


def liouville_matches(value: float, Phi):
    """liouville_det reports max |det Phi - 1| (trace A = 0), computed here too."""
    det = Phi[:, 0, 0] * Phi[:, 1, 1] - Phi[:, 0, 1] * Phi[:, 1, 0]
    own = float(np.abs(det - 1.0).max())
    return (_fault("liouville_det", value, DET_TOL)
            + _fault("|liouville_det - max |det Phi - 1||", abs(value - own), 1e-12))
