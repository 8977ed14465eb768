"""Every ``lru_cache`` in the package is bounded, unless it is keyed by one
integer, and hands out read-only arrays, so no caller can change what a
later caller gets.  The same holds for the eigensystems that a
``FockState`` keeps."""

import importlib
import pkgutil

import numpy as np
import pytest

import ngcorr
from ngcorr.channels import apply_loss
from ngcorr.measures import marginal_product
from ngcorr.states import StateSpec, make_state

#: One call per cached function; a new cache must be listed here.
CALLS = {
    "ngcorr.channels.beam_splitter": (0.4, (3, 5)),
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
    for spec in (state.spectrum(), state.spectrum(vectors=False), product.spectrum(),
                 state.spectrum().one_block()):
        arrays = list(_arrays(tuple(spec)))
        assert arrays
        assert not any(a.flags.writeable for a in arrays)
    assert state.spectrum() is state.spectrum()
    assert state.spectrum(vectors=False) is state.spectrum(vectors=False)
    assert product.spectrum() is product.spectrum()
    with pytest.raises(ValueError):
        state.spectrum().vectors[0][0, 0] = 0.0
