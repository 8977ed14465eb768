import math

import numpy as np
import pytest

from ngcorr.errors import BadSpec, TruncationError
from ngcorr.fock import ladder_ops, partial_trace
from ngcorr.states import StateSpec, cat_basis, coherent_amps, make_state
from oracles import displacement, expect


def test_coherent_mean_photon():
    st = make_state(StateSpec("coherent", {"gamma": 1.2}, cutoff=30))
    n = ladder_ops(30).number
    assert expect(n, st) == pytest.approx(1.44, abs=1e-9)


def test_cat_basis_orthonormal():
    plus, minus = cat_basis(0.9, 20)
    assert np.vdot(plus, plus).real == pytest.approx(1.0, abs=1e-12)
    assert np.vdot(minus, minus).real == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(plus, minus)) < 1e-12
    # even / odd photon-number support
    assert np.max(np.abs(plus[1::2])) < 1e-14
    assert np.max(np.abs(minus[0::2])) < 1e-14


def test_ecs_marginal_rank_two():
    st = make_state(StateSpec("ecs", {"gamma": 1.0}, cutoff=20))
    ra = partial_trace(st, [0])
    w = np.linalg.eigvalsh(ra.rho)
    assert np.sum(w > 1e-10) == 2


def test_tmsv_mean_photon():
    r = 0.4
    st = make_state(StateSpec("tmsv", {"r": r}, cutoff=20))
    n = ladder_ops(20).number
    full_n = np.kron(n, np.eye(20))
    assert np.sum(full_n.T * st.rho).real == pytest.approx(math.sinh(r) ** 2, abs=1e-10)


def test_tmsv_photon_number_correlated():
    st = make_state(StateSpec("tmsv", {"r": 0.3}, cutoff=12))
    diag = np.real(np.diagonal(st.rho)).reshape(12, 12)
    off = diag - np.diag(np.diag(diag))
    assert np.max(np.abs(off)) < 1e-14


def test_cv_werner_structure():
    st = make_state(StateSpec("cv_werner", {"f": 0.3, "r": 0.1}, cutoff=10))
    assert np.trace(st.rho).real == pytest.approx(1.0, abs=1e-12)
    assert st.rho[0, 0].real > 0.7  # vacuum fraction dominates


def test_pnes_amplitudes():
    coeffs = [0.8, 0.6]
    st = make_state(StateSpec("pnes", {"coeffs": coeffs}, cutoff=6))
    diag = np.real(np.diagonal(st.rho)).reshape(6, 6)
    assert diag[0, 0] == pytest.approx(0.64, abs=1e-12)
    assert diag[1, 1] == pytest.approx(0.36, abs=1e-12)


def test_pnes_requires_normalized_coeffs():
    with pytest.raises(BadSpec):
        StateSpec("pnes", {"coeffs": [0.9, 0.9]})


def test_cv_werner_requires_valid_fraction():
    with pytest.raises(BadSpec):
        StateSpec("cv_werner", {"f": 1.5, "r": 0.1})


def test_unknown_family_rejected():
    with pytest.raises(BadSpec):
        StateSpec("squeezed_cat", {})


@pytest.mark.parametrize("family, params", [
    ("tmsv", {}),
    ("coherent", {}),
    ("vacuum", {"modes": -1}),
    ("ecs", {"gamma": 1.0, "foo": 3}),
], ids=["tmsv-without-r", "coherent-without-gamma", "vacuum-negative-modes",
        "ecs-unknown-key"])
def test_spec_rejects_what_it_cannot_build(family, params):
    with pytest.raises(BadSpec):
        StateSpec(family, params)


@pytest.mark.parametrize("cutoff", [0, -2])
def test_spec_cutoff_below_one_is_a_bad_spec(cutoff):
    with pytest.raises(BadSpec, match="cutoff"):
        StateSpec("ecs", {"gamma": 1.0}, cutoff=cutoff)


def test_truncation_guard():
    with pytest.raises(TruncationError):
        make_state(StateSpec("coherent", {"gamma": 3.0}, cutoff=5))


def test_displacement_unitary_and_action():
    d = displacement(0.4, 25)
    assert np.max(np.abs(d.conj().T @ d - np.eye(25))) < 1e-10
    assert not d.flags.writeable
    vac = np.zeros(25, dtype=complex)
    vac[0] = 1.0
    moved = d @ vac
    assert np.max(np.abs(moved - coherent_amps(0.4, 25))) < 1e-10


def test_pnes_levels_must_fit_the_cutoff():
    with pytest.raises(BadSpec):
        make_state(StateSpec("pnes", {"coeffs": [0.6, 0.8, 0.0]}, cutoff=2))
    with pytest.raises(BadSpec):
        make_state(StateSpec("pnes", {"coeffs": [0.6, 0.8], "levels": [0, -1]},
                             cutoff=4))


@pytest.mark.parametrize("cutoff", [20, 120])
def test_real_negative_amplitude_has_exact_signs(cutoff):
    amps = coherent_amps(-0.8, cutoff)
    assert not np.any(amps.imag)
    assert np.array_equal(np.sign(amps.real), (-1.0) ** np.arange(cutoff))
