"""Every ``lru_cache`` in the package is bounded, unless it is keyed by one
integer, and hands out read-only arrays, so no caller can change what a
later caller gets.  The same holds for what a ``FockState`` keeps
(``FockState.derive``), and no state outlives the sweep that built it."""

import gc
import importlib
import pkgutil

import numpy as np
import pytest

import ngcorr
import ngcorr.measures
from ngcorr.channels import apply_loss
from ngcorr.errors import ConvergenceFailure
from ngcorr.figures import Point, run_figure
from ngcorr.fock import FockState
from ngcorr.gaussian import GaussianSpec
from ngcorr.measures import delta_ng, marginal_product, mutual_information, ng_correlation
from ngcorr.states import StateSpec, make_state

#: One call per cached function; a new cache must be listed here.
CALLS = {
    "ngcorr.channels.loss_kraus": (0.4, 5),
    "ngcorr.fock._ladder_raw": (5,),
    "ngcorr.fock.ladder_ops": (5,),
    "ngcorr.fock.quadrature_ops": ((3, 4),),
    "ngcorr.gaussian.omega": (2,),
}

#: Caches keyed by one integer (a cutoff or a mode count) may be unbounded.
INTEGER_KEYED = {"ngcorr.fock._ladder_raw", "ngcorr.fock.ladder_ops", "ngcorr.gaussian.omega"}


def _caches():
    found = {}
    for info in pkgutil.iter_modules(ngcorr.__path__):
        module = importlib.import_module(f"ngcorr.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                found[f"{module.__name__}.{name}"] = obj
    return found


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


def test_every_cache_is_listed():
    assert set(_caches()) == set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_cache_is_bounded_and_hands_out_read_only_arrays(name):
    fn = _caches()[name]
    if name not in INTEGER_KEYED:
        assert fn.cache_info().maxsize is not None
    arrays = list(_arrays(fn(*CALLS[name])))
    assert arrays
    assert not any(a.flags.writeable for a in arrays)


def test_memoised_spectra_are_kept_and_hand_out_read_only_arrays():
    state = apply_loss(make_state(StateSpec("ecs", {"gamma": 1.0}, cutoff=12)), 0.7)
    product = marginal_product(state)
    for spec in (state.spectrum(), product.spectrum(), state.spectrum().one_block()):
        arrays = list(_arrays(tuple(spec)))
        assert arrays
        assert not any(a.flags.writeable for a in arrays)
    assert state.spectrum() is state.spectrum()
    assert product.spectrum() is product.spectrum()
    with pytest.raises(ValueError):
        state.spectrum().vectors[0][0, 0] = 0.0


#: What a two-mode state keeps once every measure kind has run on it: the
#: builders of the state alone, none that depends on an order alpha.
KEPT = {"_eigensystem", "_marginals", "marginal_product",
        "moments_from_fock", "reference_state", "averaged_states"}


def _kept_states(state):
    """The state and every state kept with it, each once."""
    seen, todo = {}, [state]
    while todo:
        value = todo.pop()
        if isinstance(value, FockState):
            if id(value) in seen:
                continue
            seen[id(value)] = value
            todo.extend(value._derived.values())
            todo.extend(value.factors or ())
        elif isinstance(value, tuple):
            todo.extend(value)
    return list(seen.values())


def _kept_arrays(state):
    for st in _kept_states(state):
        yield st.rho
        for value in st._derived.values():
            if isinstance(value, GaussianSpec):
                yield from (value.means, value.cm)
            elif not isinstance(value, FockState):
                yield from _arrays(value)


def test_a_state_keeps_one_result_per_builder_and_read_only_arrays():
    state = apply_loss(make_state(StateSpec("ecs", {"gamma": 1.0}, cutoff=12)), 0.7)
    for alpha in (0.5, 1.5, 2.0):
        for kind in ("renyi", "sandwiched"):
            mutual_information(kind, state, alpha)
            delta_ng(kind, state, alpha)
    for kind in ("vn", "hs", "tr", "bures"):
        mutual_information(kind, state)
        delta_ng(kind, state)
    for kind in ("tr", "fid", "lb1", "lb2"):
        ng_correlation(kind, state)
    assert {build.__name__ for build in state._derived} == KEPT
    kept = _kept_states(state)
    assert all({build.__name__ for build in st._derived} <= KEPT for st in kept)
    for st in kept:
        for build, value in st._derived.items():
            assert st.derive(build) is value
    arrays = list(_kept_arrays(state))
    assert len(arrays) > len(kept)
    assert not any(a.flags.writeable for a in arrays)


def test_a_flagged_build_is_tried_once_and_an_unnamed_error_is_not_kept():
    state = make_state(StateSpec("ecs", {"gamma": 1.0}, cutoff=12))
    points = {}

    def point_state(build):
        """build's value as the state of a point that keeps it."""
        return points.setdefault(build, Point({"gamma": 1.0}, build)).state

    holders = ((state.derive, lambda build: state._derived),
               (point_state, lambda build: points[build]._kept))
    for derive, memo in holders:
        calls = []

        def flagged(st):
            calls.append("flagged")
            raise ConvergenceFailure("failed on purpose")

        def buggy(st):
            calls.append("buggy")
            raise RuntimeError("a bug, not a domain error")

        raised = []
        for _ in range(2):
            with pytest.raises(ConvergenceFailure) as info:
                derive(flagged)
            raised.append(info.value)
            with pytest.raises(RuntimeError):
                derive(buggy)
        assert calls == ["flagged", "buggy", "buggy"]
        assert raised[0] is raised[1]
        assert buggy not in memo(buggy)


def _live_states(collect=True):
    if collect:
        gc.collect()
    return sum(isinstance(obj, FockState) for obj in gc.get_objects())


@pytest.mark.parametrize("fail", [False, True])
def test_no_state_outlives_a_sweep(monkeypatch, fail):
    def failing(*args, **kwargs):
        raise ConvergenceFailure("synthesis failed on purpose")

    if fail:
        monkeypatch.setattr(ngcorr.measures, "reference_gaussian_fock", failing)
    before = _live_states()
    # no state waits for the cyclic collector either: a kept flagged error
    # must not hold the frames that hold its state
    gc.disable()
    try:
        rows = run_figure("fig4", {"grid": 3, "cutoff": 12})
        uncollected = _live_states(collect=False)
    finally:
        gc.enable()
    # only ng_tr reads the Fock reference; the lb rows and delta_vn are closed forms
    ng = "flagged" if fail else "ok"
    assert [r["status"] for r in rows] == [ng, "ok", "ok", "ok"] * 3
    assert uncollected == before
    assert _live_states() == before
