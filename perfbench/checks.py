"""Correctness checks on the CSV each workload writes.

Every checker takes the CSV text and the workload's inputs and returns
(rows, failed, problems): the number of rows (the operations attempted),
the rows that failed, and a list of problems.  A row fails when the
program flagged it with value nan, or when a fig5 delta_ef misses its oracle
by as much as the program's known loss of precision explains (see
README.md); any other problem makes the run incorrect.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy.stats import spearmanr

import oracle

#: Agreement asked of a value with its closed-form oracle.
FIG4_TOL = 1e-9
FIG5_TOL = 1e-9
#: The largest fig5 delta_ef miss the program's concurrence explains: square
#: roots of eigenvalues near 1e-17 move E_F by up to about 9e-9.
FIG5_DEFECT_MAX = 1e-8
MEASURE_TOL = 1e-8


def read_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _nan_rows(rows):
    return sum(1 for r in rows if r["status"] == "flagged" and math.isnan(float(r["value"])))


def fig4_etas(eta_stop, grid):
    return [float(e) for e in np.linspace(0.0, eta_stop, grid)]


def check_fig4(text, eta_stop, grid):
    """gamma = 1 ECS loss sweep: ng_tr, ng_lb1, ng_lb2 and delta_vn per eta."""
    rows = read_rows(text)
    problems = []
    etas = fig4_etas(eta_stop, grid)
    by = {}
    for r in rows:
        by.setdefault(r["measure"], []).append(r)
    if sorted(by) != ["delta_vn", "ng_lb1", "ng_lb2", "ng_tr"]:
        return len(rows), _nan_rows(rows), [f"fig4 measures {sorted(by)}"]
    series = {}
    for measure, rs in by.items():
        got = [float(r["eta"]) for r in rs]
        if got != etas:
            problems.append(f"fig4 {measure}: eta grid {got} != {etas}")
            continue
        series[measure] = np.array([float(r["value"]) for r in rs])
        if any(r["status"] != "ok" for r in rs):
            problems.append(f"fig4 {measure}: status {[r['status'] for r in rs]}")
    if problems:
        return len(rows), _nan_rows(rows), problems
    if not (np.diff(series["ng_tr"]) >= -FIG4_TOL).all():
        problems.append(f"fig4 ng_tr decreases along eta: {series['ng_tr']}")
    if not (series["ng_lb1"] >= series["ng_lb2"] - 1e-10).all():
        problems.append("fig4 ng_lb1 < ng_lb2")
    if not (series["ng_lb2"] >= -FIG4_TOL).all():
        problems.append("fig4 ng_lb2 < -1e-9")
    for measure, values in series.items():
        if abs(values[0]) > FIG4_TOL:
            problems.append(f"fig4 {measure} = {values[0]!r} at eta = 0")
    d = np.diff(series["delta_vn"])
    if not ((d > 1e-8).any() and (d < -1e-8).any()):
        problems.append(f"fig4 delta_vn is monotone in eta: {series['delta_vn']}")
    for eta, value in zip(etas, series["delta_vn"]):
        want = oracle.delta_vn(1.0, eta)
        if abs(value - want) > FIG4_TOL:
            problems.append(f"fig4 delta_vn({eta!r}) = {value!r}, oracle {want!r}")
    return len(rows), _nan_rows(rows), problems


def fig5_draws(seed, samples):
    """The (gamma, eta) pairs ngcorr's fig5 sweep draws for a seed."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.2, 1.5), rng.uniform(0.0, 1.0)) for _ in range(samples)]


def check_fig5(text, seed, samples):
    """Scatter of delta_ef against ng_lb1 over sampled lossy ECS.

    delta_ef rows that miss Wootters' closed form by more than FIG5_TOL and
    at most FIG5_DEFECT_MAX are counted as failed (see README.md): the
    program's concurrence loses that much precision on rank-2 states.  A
    larger miss makes the run incorrect.
    """
    rows = read_rows(text)
    problems = []
    draws = fig5_draws(seed, samples)
    if len(rows) != 2 * samples:
        return len(rows), _nan_rows(rows), [f"fig5: {len(rows)} rows for {samples} samples"]
    failed = _nan_rows(rows)
    xs, ys = [], []
    for k, (g, eta) in enumerate(draws):
        ef, lb1 = rows[2 * k], rows[2 * k + 1]
        if (ef["measure"], lb1["measure"]) != ("delta_ef", "ng_lb1"):
            problems.append(f"fig5 sample {k}: measures {ef['measure']}, {lb1['measure']}")
            continue
        for r in (ef, lb1):
            if (float(r["gamma"]), float(r["eta"]), int(r["seed"])) != (g, eta, seed):
                problems.append(f"fig5 sample {k}: inputs {r['gamma']}, {r['eta']}")
        if ef["status"] != lb1["status"] or ef["status"] not in ("ok", "flagged"):
            problems.append(f"fig5 sample {k}: status {ef['status']}, {lb1['status']}")
        v_ef, v_lb1 = float(ef["value"]), float(lb1["value"])
        if math.isnan(v_ef) or math.isnan(v_lb1):
            continue
        miss = abs(v_ef - oracle.entanglement_of_formation(g, eta))
        if miss > FIG5_DEFECT_MAX:
            problems.append(f"fig5 sample {k}: delta_ef misses the oracle by {miss:.3g}")
        elif miss > FIG5_TOL:
            failed += 1
        if v_lb1 < -FIG5_TOL:
            problems.append(f"fig5 sample {k}: ng_lb1 = {v_lb1!r}")
        if ef["status"] == "ok":
            xs.append(v_ef)
            ys.append(v_lb1)
    if len(xs) < 3 or not spearmanr(xs, ys).statistic > 0.0:
        problems.append(f"fig5: Spearman(delta_ef, ng_lb1) over {len(xs)} ok rows not > 0")
    return len(rows), failed, problems


def check_measure(text, ids, gamma, eta):
    """measure_state on the lossy ECS: every id against the 4x4 model."""
    rows = read_rows(text)
    problems = []
    got = [r["measure"] for r in rows]
    if sorted(got) != sorted(ids):
        return len(rows), _nan_rows(rows), [f"measure_state ids {got} != {ids}"]
    for r in rows:
        if r["status"] != "ok":
            problems.append(f"{r['measure']}: status {r['status']}")
            continue
        want = oracle.measure_id(r["measure"], gamma, eta)
        if abs(float(r["value"]) - want) > MEASURE_TOL:
            problems.append(f"{r['measure']} = {r['value']}, oracle {want!r}")
    return len(rows), _nan_rows(rows), problems
