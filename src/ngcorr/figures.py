"""Sweep definitions behind the published data sets.

Each figure function returns a list of row dicts with a fixed column set;
the command-line layer renders them as CSV.  Rows are produced in a
deterministic grid order; a worker pool may evaluate grid points in any
order without changing the output.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .channels import apply_loss, ecs_loss_analytic
from .entanglement import eof_two_qubit, log_negativity_fock
from .fock import truncate_state
from .distill import DistillConfig, distill
from .gaussian import (
    analytic_cm,
    gaussian_log_negativity,
    gaussian_mi,
    moments_from_fock,
    reference_gaussian_fock,
)
from .measures import delta_ng, mutual_information, ng_correlation, reference_state
from .states import StateSpec, default_cutoff, make_state
from .xstate import ecs_to_xstate, xstate_mi

COLUMNS = (
    "figure",
    "gamma",
    "alpha",
    "eta",
    "f",
    "r",
    "x",
    "seed",
    "measure",
    "value",
    "cutoff",
    "tail_mass",
    "status",
)

FIGURE_IDS = (
    "fig2a",
    "fig2b",
    "fig2cd",
    "fig2ef",
    "fig3",
    "fig4",
    "fig5",
    "fig6a",
    "fig6b",
    "fig6cd",
)

TWO_LN_2 = 2.0 * math.log(2.0)

#: Photon-number entangled state behind the loss-dynamics line plot.
PNES_COEFFS = (0.986, 0.162, math.sqrt(1.0 - 0.986**2 - 0.162**2))


def _row(figure, measure, value, cutoff="", tail_mass="", status="ok", **params):
    row = {c: "" for c in COLUMNS}
    row.update(figure=figure, measure=measure, value=value, cutoff=cutoff,
               tail_mass=tail_mass, status=status)
    row.update(params)
    return row


def _flagged(figure, measure, exc, **params):
    return _row(figure, measure, math.nan, status="flagged", **params)


def default_threads():
    env = os.environ.get("NGCORR_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _pool_map(fn, items, threads):
    """Order-preserving parallel map; exceptions propagate per item."""
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _linspace(rng_spec, default_start, default_stop, count):
    if rng_spec is None:
        return np.linspace(default_start, default_stop, count)
    start, stop, n = rng_spec
    return np.linspace(start, stop, int(n))


def _opt(options, key, default):
    val = options.get(key)
    return default if val is None else val


def fig2_pure(figure, options):
    """Contours of the reference-subtracted entropic mutual informations for
    the pure two-mode superposition of opposite coherent pairs.

    The target value is 2 ln 2 for every order, so only the Gaussian
    closed form is evaluated per grid point.
    """
    kind = "renyi" if figure == "fig2a" else "sandwiched"
    measure = "delta_renyi" if figure == "fig2a" else "delta_sandwiched"
    grid = _opt(options, "grid", 41)
    gammas = _linspace(options.get("gamma"), 0.5, 2.5, grid)
    alphas = _linspace(options.get("alpha"), 0.5, 3.0, grid)
    rows = []
    for g in gammas:
        for al in alphas:
            params = dict(gamma=g, alpha=al)
            try:
                ref = gaussian_mi(kind, analytic_cm("ecs_loss", gamma=g, eta=1.0), al)
                if math.isinf(ref):
                    rows.append(_row(figure, measure, -math.inf,
                                     status="infinity", **params))
                else:
                    rows.append(_row(figure, measure, TWO_LN_2 - ref, **params))
            except Exception as exc:
                rows.append(_flagged(figure, measure, exc, **params))
    return rows


def fig2cd(options):
    """Entropic deltas for the lossy superposition state at unit amplitude,
    against transmittance and order, via the two-qubit closed forms."""
    grid = _opt(options, "grid", 41)
    etas = _linspace(options.get("eta"), 0.0, 1.0, grid)
    alphas = _linspace(options.get("alpha"), 0.5, 3.0, grid)
    gamma = 1.0
    rows = []
    for eta in etas:
        for al in alphas:
            for kind, measure in (("renyi", "delta_renyi"),
                                  ("sandwiched", "delta_sandwiched")):
                params = dict(gamma=gamma, alpha=al, eta=eta)
                if eta <= 0.0:
                    # full loss leaves an uncorrelated vacuum pair
                    rows.append(_row("fig2cd", measure, 0.0, **params))
                    continue
                try:
                    target = xstate_mi(kind, ecs_to_xstate(gamma, eta), al)
                    ref = gaussian_mi(
                        kind, analytic_cm("ecs_loss", gamma=gamma, eta=eta), al
                    )
                    if math.isinf(ref):
                        rows.append(_row("fig2cd", measure, -math.inf,
                                         status="infinity", **params))
                    else:
                        rows.append(_row("fig2cd", measure, target - ref, **params))
                except Exception as exc:
                    rows.append(_flagged("fig2cd", measure, exc, **params))
    return rows


def fig2ef(options, threads=1):
    """Geometric deltas (Hilbert-Schmidt closed form, trace-distance Fock
    numerics) for the lossy superposition state against amplitude and
    transmittance.  Default grid is coarser than the entropic contours
    because each trace-distance point diagonalizes the full Fock matrices."""
    grid = _opt(options, "grid", 21)
    gammas = _linspace(options.get("gamma"), 0.2, 1.2, grid)
    etas = _linspace(options.get("eta"), 0.0, 1.0, grid)
    points = [(g, eta) for g in gammas for eta in etas]

    def work(point):
        g, eta = point
        params = dict(gamma=g, eta=eta)
        out = []
        if eta <= 0.0:
            out.append(_row("fig2ef", "delta_hs", 0.0, **params))
            out.append(_row("fig2ef", "delta_tr", 0.0, **params))
            return out
        try:
            hs_t = xstate_mi("hs", ecs_to_xstate(g, eta))
            hs_r = gaussian_mi("hs", analytic_cm("ecs_loss", gamma=g, eta=eta))
            out.append(_row("fig2ef", "delta_hs", hs_t - hs_r, **params))
        except Exception as exc:
            out.append(_flagged("fig2ef", "delta_hs", exc, **params))
        try:
            cut = int(_opt(options, "cutoff", default_cutoff(g)))
            state = make_state(StateSpec("ecs", {"gamma": g}, cutoff=cut))
            state = apply_loss(state, eta)
            res = delta_ng("tr", state)
            out.append(_row("fig2ef", "delta_tr", res.value, cutoff=cut,
                            tail_mass=res.tail_mass, **params))
        except Exception as exc:
            out.append(_flagged("fig2ef", "delta_tr", exc, **params))
        return out

    return [r for rows in _pool_map(work, points, threads) for r in rows]


def fig3(options, threads=1):
    """Loss dynamics of the Hilbert-Schmidt delta for the three-level
    photon-number entangled state."""
    grid = _opt(options, "grid", 51)
    etas = _linspace(options.get("eta"), 0.0, 1.0, grid)
    cut = int(_opt(options, "cutoff", 8))
    base = make_state(StateSpec("pnes", {"coeffs": PNES_COEFFS}, cutoff=cut))

    def work(eta):
        params = dict(eta=eta)
        try:
            state = apply_loss(base, eta)
            res = delta_ng("hs", state)
            return _row("fig3", "delta_hs", res.value, cutoff=cut,
                        tail_mass=res.tail_mass, **params)
        except Exception as exc:
            return _flagged("fig3", "delta_hs", exc, **params)

    return _pool_map(work, list(etas), threads)


def fig4(options, threads=1):
    """Non-Gaussian-correlation measures and the von Neumann delta for the
    unit-amplitude superposition state under symmetric loss."""
    grid = _opt(options, "grid", 51)
    etas = _linspace(options.get("eta"), 0.0, 1.0, grid)
    gamma = 1.0
    cut = int(_opt(options, "cutoff", default_cutoff(gamma)))
    base = make_state(StateSpec("ecs", {"gamma": gamma}, cutoff=cut))

    def work(eta):
        params = dict(gamma=gamma, eta=eta)
        out = []
        try:
            state = apply_loss(base, eta)
            ref = reference_state(state)
            for kind, measure in (("tr", "ng_tr"), ("lb1", "ng_lb1"),
                                  ("lb2", "ng_lb2")):
                res = ng_correlation(kind, state, reference=ref)
                out.append(_row("fig4", measure, res.value, cutoff=cut,
                                tail_mass=res.tail_mass, **params))
            res = delta_ng("vn", state)
            out.append(_row("fig4", "delta_vn", res.value, cutoff=cut,
                            tail_mass=res.tail_mass, **params))
        except Exception as exc:
            out.append(_flagged("fig4", "all", exc, **params))
        return out

    return [r for rows in _pool_map(work, list(etas), threads) for r in rows]


def fig5(options, threads=1):
    """Scatter of the entanglement-of-formation excess against the
    superfidelity-based measure over sampled lossy superposition states.

    (gamma, eta) are drawn uniformly from [0.2, 1.5] x [0, 1].  Rows where
    the Gaussian reference fails the positive-partial-transpose criterion
    (so its entanglement of formation need not vanish) are flagged.
    """
    samples = int(_opt(options, "samples", 10_000))
    seed = int(_opt(options, "seed", 0))
    rng = np.random.default_rng(seed)
    draws = [(rng.uniform(0.2, 1.5), rng.uniform(0.0, 1.0)) for _ in range(samples)]

    def work(point):
        g, eta = point
        params = dict(gamma=g, eta=eta, seed=seed)
        out = []
        try:
            cut = int(_opt(options, "cutoff", default_cutoff(g)))
            if eta * g * g > 1e-8:
                de_f = eof_two_qubit(ecs_to_xstate(g, eta))
                state = ecs_loss_analytic(g, eta, cut)
            else:
                de_f = 0.0
                state = apply_loss(
                    make_state(StateSpec("ecs", {"gamma": g}, cutoff=cut)), eta
                )
            state = truncate_state(state, tol=1e-10)
            cut = max(state.dims)
            spec = moments_from_fock(state)
            status = "ok"
            if gaussian_log_negativity(spec) > 1e-9:
                status = "flagged"  # entangled reference: E_F excess ill-defined
            ref = reference_gaussian_fock(spec, state.dims)
            lb1 = ng_correlation("lb1", state, reference=ref)
            out.append(_row("fig5", "delta_ef", de_f, cutoff=cut,
                            tail_mass=state.tail_mass, status=status, **params))
            out.append(_row("fig5", "ng_lb1", lb1.value, cutoff=cut,
                            tail_mass=lb1.tail_mass, status=status, **params))
        except Exception as exc:
            out.append(_flagged("fig5", "delta_ef", exc, **params))
            out.append(_flagged("fig5", "ng_lb1", exc, **params))
        return out

    return [r for rows in _pool_map(work, draws, threads) for r in rows]


def fig6a(options, threads=1):
    """Trace-distance measure for the vacuum/two-mode-squeezed mixture
    against the fraction, at two squeezing strengths."""
    grid = _opt(options, "grid", 51)
    fs = _linspace(options.get("f"), 0.0, 1.0, grid)
    rs = options.get("r_values", (0.05, 0.1))
    points = [(r, f) for r in rs for f in fs]

    def work(point):
        r, f = point
        params = dict(f=f, r=r)
        try:
            cut = int(_opt(options, "cutoff", 10))
            state = make_state(StateSpec("cv_werner", {"f": f, "r": r}, cutoff=cut))
            res = ng_correlation("tr", state)
            return _row("fig6a", "ng_tr", res.value, cutoff=cut,
                        tail_mass=res.tail_mass, **params)
        except Exception as exc:
            return _flagged("fig6a", "ng_tr", exc, **params)

    return _pool_map(work, points, threads)


def fig6b(options, threads=1):
    """Scatter of the negativity excess against the trace-distance measure
    over sampled vacuum/two-mode-squeezed mixtures (f in [0,1], r in [0,0.2])."""
    samples = int(_opt(options, "samples", 10_000))
    seed = int(_opt(options, "seed", 0))
    rng = np.random.default_rng(seed)
    draws = [(rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.2)) for _ in range(samples)]

    def work(point):
        f, r = point
        params = dict(f=f, r=r, seed=seed)
        out = []
        try:
            cut = int(_opt(options, "cutoff", 10))
            state = make_state(StateSpec("cv_werner", {"f": f, "r": r}, cutoff=cut))
            de_n = log_negativity_fock(state) - gaussian_log_negativity(
                moments_from_fock(state)
            )
            jtr = ng_correlation("tr", state)
            out.append(_row("fig6b", "delta_en", de_n, cutoff=cut,
                            tail_mass=state.tail_mass, **params))
            out.append(_row("fig6b", "ng_tr", jtr.value, cutoff=cut,
                            tail_mass=jtr.tail_mass, **params))
        except Exception as exc:
            out.append(_flagged("fig6b", "delta_en", exc, **params))
            out.append(_flagged("fig6b", "ng_tr", exc, **params))
        return out

    return [r for rows in _pool_map(work, draws, threads) for r in rows]


def fig6cd(options, threads=1):
    """Logarithmic negativity of the vacuum/two-mode-squeezed mixture before
    and after the beam-splitter/homodyne protocol, against the fraction."""
    grid = _opt(options, "grid", 51)
    fs = _linspace(options.get("f"), 0.0, 1.0, grid)
    rs = options.get("r_values", (0.05, 0.1))
    eta = float(_opt(options, "eta_bs", 0.9))
    x = float(_opt(options, "x", 0.8))
    points = [(r, f) for r in rs for f in fs]

    def work(point):
        r, f = point
        params = dict(f=f, r=r, eta=eta, x=x)
        out = []
        try:
            cut = int(_opt(options, "cutoff", 12))
            state = make_state(StateSpec("cv_werner", {"f": f, "r": r}, cutoff=cut))
            out.append(_row("fig6cd", "en_original", log_negativity_fock(state),
                            cutoff=cut, tail_mass=state.tail_mass, **params))
            dist, _weight = distill(state, DistillConfig(eta, x, x, cutoff=cut))
            out.append(_row("fig6cd", "en_distilled", log_negativity_fock(dist),
                            cutoff=cut, tail_mass=dist.tail_mass, **params))
        except Exception as exc:
            out.append(_flagged("fig6cd", "en_distilled", exc, **params))
        return out

    return [r for rows in _pool_map(work, points, threads) for r in rows]


def run_figure(figure, options=None, threads=None):
    """Rows for one figure id; options may carry grid/samples/seed/cutoff
    and range overrides keyed gamma/alpha/eta/f/r/x."""
    options = dict(options or {})
    threads = default_threads() if threads is None else max(1, int(threads))
    if figure in ("fig2a", "fig2b"):
        return fig2_pure(figure, options)
    if figure == "fig2cd":
        return fig2cd(options)
    if figure == "fig2ef":
        return fig2ef(options, threads)
    if figure == "fig3":
        return fig3(options, threads)
    if figure == "fig4":
        return fig4(options, threads)
    if figure == "fig5":
        return fig5(options, threads)
    if figure == "fig6a":
        return fig6a(options, threads)
    if figure == "fig6b":
        return fig6b(options, threads)
    if figure == "fig6cd":
        return fig6cd(options, threads)
    raise ValueError(f"unknown figure id {figure!r}; expected one of {FIGURE_IDS}")
