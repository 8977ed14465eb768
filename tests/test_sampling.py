import numpy as np
import pytest

import sampling
from oracles import standard_form_spec, xstate_matrix

from sampling import (
    random_density_matrix,
    random_gaussian_spec,
    random_standard_form,
    random_two_mode_state,
    random_xstate,
)


def test_random_xstate_positive(rng):
    for _ in range(50):
        params = random_xstate(rng)
        w = np.linalg.eigvalsh(xstate_matrix(params))
        assert w[0] > -1e-12


def test_random_standard_form_physical(rng):
    for _ in range(50):
        sf = random_standard_form(rng)
        standard_form_spec(sf)  # physicality gate inside


def test_random_density_matrix_valid(rng):
    rho = random_density_matrix(rng, 7)
    assert np.trace(rho).real == 1.0 or abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho)[0] > -1e-13


def test_random_two_mode_state_zero_tail(rng):
    st = random_two_mode_state(rng, levels=3, cutoff=8)
    assert st.tail_mass == 0.0
    assert np.trace(st.rho).real - 1.0 < 1e-12


def test_random_gaussian_spec_physical(rng):
    for _ in range(20):
        random_gaussian_spec(rng)  # construction enforces physicality


def test_determinism():
    a = random_xstate(np.random.default_rng(5))
    b = random_xstate(np.random.default_rng(5))
    assert a == b


def test_random_standard_form_retries_only_unphysical_draws(rng, monkeypatch):
    def broken(**kwargs):
        raise RuntimeError("not a rejection")

    monkeypatch.setattr(sampling, "StandardFormCM", broken)
    with pytest.raises(RuntimeError):
        random_standard_form(rng)
