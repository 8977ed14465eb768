"""Sweep definitions behind the published data sets.

``FIGURES`` holds one entry per figure id: its axes (or seeded draws), its
state builder (None for a figure that builds no Fock state) and its ordered
measure list.  Every builder is ``states.make_state`` of a ``StateSpec``,
which chooses the loss route: fig2ef and fig4 build the lossy superposition
for their Fock-route measures as ``measure_state`` does for an ``ecs`` spec
with ``eta``.  Its closed-form deltas (fig2cd, fig2ef's ``delta_hs``,
fig4's ``delta_vn``) and its ``lb1``/``lb2`` bounds (fig4, fig5), which come
from its phase-space terms (``measures.ng_bounds``), build no Fock state,
and so fig5 builds none.  ``sweep`` evaluates the points of any such entry,
and the single point behind ``measure_state``, and renders one row per point
and requested measure with a fixed column set; the command-line layer writes
them as CSV.  Rows come in a deterministic point order; a worker pool may
evaluate points in any order without changing the output.

Threads: a sweep of any number of points (``measure_state``'s has one)
runs them on ``threads`` worker threads with BLAS at one thread throughout
(``blas.one_thread``), so it uses ``threads`` cores and its output does not
depend on the BLAS thread settings; it puts the BLAS count it found back
when it returns or raises.  Calls outside a sweep keep the caller's settings.

A point keeps its state and its phase-space bounds (``Point.derive``);
what its Fock-route measures share (the marginal product, the moments, the
Gaussian reference, the averaged pair) is kept with the state
(``FockState.derive``).

Error policy (``errors.FLAGGED``): a measure that raises ``NGCorrError`` or
``numpy.linalg.LinAlgError`` gets a ``flagged`` row with value nan.  Any
other exception is a bug and propagates.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
# imported eagerly: numpy loads numpy.random on first use, which would put
# that import inside the first sampled sweep instead of the package import
from numpy.random import default_rng

from . import phase
from .blas import one_thread
from .distill import DistillConfig, distill
from .entanglement import eof_two_qubit, log_negativity_fock
from .errors import FLAGGED, BadSpec, DomainError, forget_frames
from .fock import kept
from .gaussian import (
    analytic_cm,
    gaussian_log_negativity,
    gaussian_mi,
    moments_from_fock,
)
from .measures import (
    MeasureResult,
    delta_ng,
    mutual_information,
    ng_bounds,
    ng_correlation,
    status_of,
)
from .states import StateSpec, _count, make_state
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

TWO_LN_2 = 2.0 * math.log(2.0)

#: Photon-number entangled state behind the loss-dynamics line plot.
PNES_COEFFS = (0.986, 0.162, math.sqrt(1.0 - 0.986**2 - 0.162**2))

def default_threads():
    """NGCORR_THREADS, a positive integer, or else the number of CPUs this
    process may run on."""
    env = os.environ.get("NGCORR_THREADS")
    if env:
        return _count(env, "NGCORR_THREADS")
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_map(fn, items, threads):
    """Order-preserving map over ``threads`` worker threads, with BLAS at one
    thread throughout; exceptions propagate per item."""
    with one_thread():
        if threads <= 1:
            return [fn(it) for it in items]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))


def _opt(options, key, default):
    val = options.get(key)
    return default if val is None else val


class Point:
    """One sweep point: its row parameters and its state's builder.  The
    state is built on first use and kept, and a flagged build is tried once
    per point (``fock.kept``); the operands its measures share are kept
    with the state (``FockState.derive``)."""

    def __init__(self, params, build):
        self.params = params
        self.build = build
        self._kept = {}

    def derive(self, build):
        """``build(params)``, kept with the point (``fock.kept``)."""
        return kept(self._kept, build, self.params)

    @property
    def state(self):
        return self.derive(self.build)


def _row(figure, name, params, res):
    row = dict.fromkeys(COLUMNS, "")
    row.update(params, figure=figure, measure=name)
    if res is None:
        row.update(value=math.nan, status="flagged")
        return row
    if isinstance(res, MeasureResult):
        row.update(cutoff=max(res.cutoff), tail_mass=res.tail_mass)
        res = res.value
    row.update(value=res, status=status_of(res))
    return row


def sweep(figure, points, measures, build, threads=1):
    """One row per point and measure, in point order, then measure order.

    ``points`` are dicts of row parameters; ``build(params)`` makes a
    point's state.  ``measures`` are (name, fn) pairs; ``fn(point)`` returns
    a closed-form float (no cutoff) or a MeasureResult, whose cutoff and
    tail mass go into the row; either row's status follows from its value.
    """

    def work(params):
        point = Point(params, build)
        rows = []
        for name, fn in measures:
            try:
                res = fn(point)
            except FLAGGED as exc:
                forget_frames(exc)
                res = None
            rows.append(_row(figure, name, params, res))
        return rows

    return [row for rows in _pool_map(work, points, threads) for row in rows]


def measure(group, kind, alpha=None):
    """``fn(point)`` for one measure id: group 'mi', 'delta' or 'ng', a kind
    and an optional order.  The operands the measures share are kept with
    the point's state, so every measure at a point shares them."""
    if group == "mi":
        return lambda pt: mutual_information(kind, pt.state, alpha)
    if group == "ng":
        return lambda pt: ng_correlation(kind, pt.state)
    return lambda pt: delta_ng(kind, pt.state, alpha)


def _pure_delta(kind):
    """Pure superposition: the target is 2 ln 2 for every order, so only the
    Gaussian closed form is evaluated."""
    return lambda pt: TWO_LN_2 - gaussian_mi(
        kind, analytic_cm("ecs_loss", gamma=pt.params["gamma"], eta=1.0),
        pt.params["alpha"])


def _unless_full_loss(fn):
    """fn, but 0 at eta = 0: full loss leaves an uncorrelated vacuum pair."""
    return lambda pt: 0.0 if pt.params["eta"] <= 0.0 else fn(pt)


def _lossy_delta(kind):
    """Lossy superposition through the two-qubit closed forms (0 at full loss)."""

    def fn(pt):
        g, eta, al = pt.params["gamma"], pt.params["eta"], pt.params.get("alpha")
        # + 0.0: at full loss, log 1 / (1 - alpha) is -0.0 on one side of 1
        return xstate_mi(kind, ecs_to_xstate(g, eta), al) - gaussian_mi(
            kind, analytic_cm("ecs_loss", gamma=g, eta=eta), al) + 0.0

    return fn


def _lossy_ecs(p, cutoff):
    """Lossy superposition at its amplitude's default cutoff unless overridden."""
    return make_state(StateSpec("ecs", {"gamma": p["gamma"]}, cutoff=cutoff, eta=p["eta"]))


#: Amplitudes at which the phase-space bounds of the lossy superposition
#: are tested to meet a 50-digit evaluation of the same sums within 1e-12
#: (tests/test_phase.py); fig5 draws its gamma from it.  Below it the terms
#: cancel: they miss by 1.5e-13 at gamma = 0.2, 4.7e-12 at 0.12 and 2e-11 at 0.1.
PHASE_GAMMA_RANGE = (0.2, 1.5)


def _lossy_ecs_terms(p):
    """The lossy superposition N^2 (|g,g> - |-g,-g>)(<g,g| - <-g,-g|), with
    N^2 = 1 / (2 - 2 exp(-4 g^2)), as four coherent dyads through loss."""
    g = p["gamma"]
    low, high = PHASE_GAMMA_RANGE
    if not low <= g <= high:
        raise DomainError(f"phase-space bounds tested for gamma in [{low}, {high}], "
                          f"not at {g!r}")
    norm = 1.0 / (2.0 - 2.0 * math.exp(-4.0 * g * g))
    dyads = [(norm * s * t, phase.coherent_dyad([s * g] * 2, [t * g] * 2))
             for s in (1, -1) for t in (1, -1)]
    return phase.loss(phase.weighted_sum(dyads), p["eta"])


def _lossy_bounds(p):
    """(lb1, lb2) of the lossy superposition (``measures.ng_bounds``)."""
    return ng_bounds(_lossy_ecs_terms(p))


def _lossy_bound(kind):
    """lb1 or lb2 of the lossy superposition, both kept with the point."""
    index = ("lb1", "lb2").index(kind)
    return lambda pt: pt.derive(_lossy_bounds)[index]


def _ef_excess(pt):
    """The X state's E_F: the Gaussian reference (``analytic_cm``) has none, as
    its covariance matrix minus I/2 is [[X, X], [X, X]] with X = diag(x_q, x_p)
    >= 0, a mixture of product coherent states |a, a> at every gamma and eta."""
    return eof_two_qubit(ecs_to_xstate(pt.params["gamma"], pt.params["eta"]))


def _werner(default):
    """Vacuum/two-mode-squeezed mixture at cutoff ``default`` unless overridden."""
    return lambda p, cutoff: make_state(StateSpec(
        "cv_werner", {"f": p["f"], "r": p["r"]}, cutoff=cutoff or default))


def _en(pt):
    """Log-negativity of the point's state."""
    return MeasureResult.on(pt.state, log_negativity_fock(pt.state))


def _en_excess(pt):
    """Log-negativity in excess of the Gaussian reference's closed form."""
    moments = pt.state.derive(moments_from_fock)
    excess = log_negativity_fock(pt.state) - gaussian_log_negativity(moments)
    return MeasureResult.on(pt.state, excess)


def _en_distilled(pt):
    """Log-negativity after the beam-splitter/homodyne protocol."""
    x = pt.params["x"]
    config = DistillConfig(pt.params["eta"], x, x)
    dist, _weight = distill(pt.state, config)
    return MeasureResult.on(dist, log_negativity_fock(dist))


#: The axes a figure may sweep, each one a START:STOP:COUNT range option.
RANGE_KEYS = ("gamma", "alpha", "eta", "f", "r", "x")


@dataclass(frozen=True)
class Figure:
    """One figure's sweep.

    ``axes`` are (name, start, stop, count) with count None for the grid
    density; the points are their product, the first axis slowest.
    ``draws`` are (name, low, high) instead: each of ``samples`` points draws
    its values uniformly from a generator seeded with ``seed``.  ``const``
    adds fixed row parameters; ``state(params, cutoff)`` builds a point's
    state, ``cutoff`` being the override or None.
    """

    measures: tuple
    axes: tuple = ()
    draws: tuple = ()
    const: dict = field(default_factory=dict)
    state: object = None
    grid: int = 51

    @property
    def unused(self):
        """The options this figure has no use for, each with the reason."""
        reasons = {"cutoff": "builds no Fock state"} if self.state is None else {}
        swept = [axis[0] for axis in self.axes]
        reasons.update((key, f"sweeps no {key} axis")
                       for key in RANGE_KEYS if key not in swept)
        if self.draws:
            return {**reasons, "grid": "draws its points at random"}
        return {**reasons, "samples": "sweeps a grid", "seed": "sweeps a grid"}

    def points(self, options):
        if self.draws:
            seed = _count(_opt(options, "seed", 0), "seed", least=0)
            rng = default_rng(seed)
            return [{**self.const, **{n: rng.uniform(lo, hi) for n, lo, hi in self.draws},
                     "seed": seed}
                    for _ in range(_count(_opt(options, "samples", 10_000), "samples"))]
        grid = _count(_opt(options, "grid", self.grid), "grid")
        names = [axis[0] for axis in self.axes]
        values = []
        for name, start, stop, count in self.axes:
            start, stop, count = _opt(options, name, (start, stop, count or grid))
            if not (math.isfinite(start) and math.isfinite(stop)):
                raise BadSpec(f"{name} range {start!r}:{stop!r} must have finite ends")
            values.append(np.linspace(start, stop, _count(count, f"{name} count")))
        return [{**self.const, **dict(zip(names, v))} for v in itertools.product(*values)]


#: Contours of the reference-subtracted entropic mutual informations for the
#: pure superposition of opposite coherent pairs.
_FIG2_PURE_AXES = (("gamma", 0.5, 2.5, None), ("alpha", 0.5, 3.0, None))
#: Two squeezing strengths of the vacuum/two-mode-squeezed mixture.
_R_AXIS = ("r", 0.05, 0.1, 2)

FIGURES = {
    "fig2a": Figure((("delta_renyi", _pure_delta("renyi")),),
                    axes=_FIG2_PURE_AXES, grid=41),
    "fig2b": Figure((("delta_sandwiched", _pure_delta("sandwiched")),),
                    axes=_FIG2_PURE_AXES, grid=41),
    # entropic deltas of the lossy superposition at unit amplitude
    "fig2cd": Figure((("delta_renyi", _lossy_delta("renyi")),
                      ("delta_sandwiched", _lossy_delta("sandwiched"))),
                     axes=(("eta", 0.0, 1.0, None), ("alpha", 0.5, 3.0, None)),
                     const={"gamma": 1.0}, grid=41),
    # geometric deltas: Hilbert-Schmidt closed form, trace distance in Fock
    # numerics (a coarser default grid, each point diagonalizes full matrices)
    "fig2ef": Figure((("delta_hs", _lossy_delta("hs")),
                      ("delta_tr", _unless_full_loss(measure("delta", "tr")))),
                     axes=(("gamma", 0.2, 1.2, None), ("eta", 0.0, 1.0, None)),
                     state=_lossy_ecs, grid=21),
    # loss dynamics of the three-level photon-number entangled state
    "fig3": Figure((("delta_hs", measure("delta", "hs")),),
                   axes=(("eta", 0.0, 1.0, None),),
                   state=lambda p, cutoff: make_state(StateSpec(
                       "pnes", {"coeffs": PNES_COEFFS}, cutoff=cutoff or 8, eta=p["eta"]))),
    # non-Gaussian-correlation measures of the unit-amplitude superposition
    "fig4": Figure((("ng_tr", measure("ng", "tr")), ("ng_lb1", _lossy_bound("lb1")),
                    ("ng_lb2", _lossy_bound("lb2")), ("delta_vn", _lossy_delta("vn"))),
                   axes=(("eta", 0.0, 1.0, None),), const={"gamma": 1.0},
                   state=_lossy_ecs),
    # E_F excess against the superfidelity bound over sampled lossy states
    "fig5": Figure((("delta_ef", _ef_excess), ("ng_lb1", _lossy_bound("lb1"))),
                   draws=(("gamma", *PHASE_GAMMA_RANGE), ("eta", 0.0, 1.0))),
    "fig6a": Figure((("ng_tr", measure("ng", "tr")),),
                    axes=(_R_AXIS, ("f", 0.0, 1.0, None)), state=_werner(10)),
    # negativity excess against the trace-distance measure over sampled mixtures
    "fig6b": Figure((("delta_en", _en_excess), ("ng_tr", measure("ng", "tr"))),
                    draws=(("f", 0.0, 1.0), ("r", 0.0, 0.2)), state=_werner(10)),
    # negativity before and after the beam-splitter/homodyne protocol
    "fig6cd": Figure((("en_original", _en), ("en_distilled", _en_distilled)),
                     axes=(_R_AXIS, ("f", 0.0, 1.0, None), ("x", 0.8, 0.8, 1)),
                     const={"eta": 0.9}, state=_werner(12)),
}

FIGURE_IDS = tuple(FIGURES)


def run_figure(figure, options=None, threads=None):
    """Rows for one figure id; options may carry grid/samples/seed/cutoff
    and START:STOP:COUNT overrides keyed by the figure's axis names."""
    if figure not in FIGURES:
        raise ValueError(f"unknown figure id {figure!r}; expected one of {FIGURE_IDS}")
    fig = FIGURES[figure]
    options = dict(options or {})
    for key, why in fig.unused.items():
        if options.get(key) is not None:
            raise BadSpec(f"{figure} {why}; option {key!r} does not apply")
    threads = default_threads() if threads is None else _count(threads, "threads")
    cutoff = options.get("cutoff")
    cutoff = None if cutoff is None else _count(cutoff, "cutoff")
    return sweep(figure, fig.points(options), fig.measures,
                 lambda p: fig.state(p, cutoff), threads)
