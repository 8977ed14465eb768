import math

import numpy as np
import pytest

from ngcorr.entanglement import (
    concurrence_two_qubit,
    eof_two_qubit,
    log_negativity_fock,
)
from ngcorr.fock import tensor
from ngcorr.states import StateSpec, make_state
from ngcorr.xstate import XStateParams
from oracles import bell_params, spin_flip_concurrence, xstate_matrix
from sampling import random_xstate


def test_bell_state_maximal():
    bell = bell_params()
    assert concurrence_two_qubit(bell) == pytest.approx(1.0, abs=1e-12)
    assert eof_two_qubit(bell) == pytest.approx(math.log(2.0), abs=1e-12)


def test_separable_xstate_zero():
    diag = XStateParams(a=0.4, b=0.3, c=0.2, d=0.1)
    assert concurrence_two_qubit(diag) == 0.0
    assert eof_two_qubit(diag) == 0.0


@pytest.mark.parametrize("c", [1e-12, 1e-9, 2.3e-7, 1e-4, 0.01, 0.3, 0.7, 0.99])
def test_eof_keeps_relative_precision_at_small_concurrence(c):
    mpmath = pytest.importorskip("mpmath")
    # u = c/2 with empty a, d corners gives concurrence exactly c
    params = XStateParams(a=0.0, b=0.5, c=0.5, d=0.0, u=c / 2.0, v=0.0)
    assert concurrence_two_qubit(params) == c
    with mpmath.workdps(50):
        mc = mpmath.mpf(c)
        q = (1 - mpmath.sqrt(1 - mc * mc)) / 2
        want = float(-q * mpmath.log(q) - (1 - q) * mpmath.log(1 - q))
    assert eof_two_qubit(params) == pytest.approx(want, rel=1e-12)


def test_werner_two_qubit_threshold():
    # two-qubit Werner mixture p |Bell><Bell| + (1-p) I/4 separates at p = 1/3
    bell = xstate_matrix(bell_params())
    for p, positive in ((0.2, False), (0.5, True)):
        rho = p * bell + (1 - p) * np.eye(4) / 4.0
        params = XStateParams(
            a=rho[0, 0].real, b=rho[1, 1].real, c=rho[2, 2].real, d=rho[3, 3].real,
            u=rho[1, 2], v=rho[0, 3],
        )
        c = concurrence_two_qubit(params)
        assert (c > 1e-10) == positive


def test_closed_form_matches_spin_flip_spectrum(rng):
    for _ in range(500):
        params = random_xstate(rng)
        assert concurrence_two_qubit(params) == pytest.approx(
            spin_flip_concurrence(params), abs=1e-8
        )


def test_log_negativity_tmsv():
    r = 0.3
    st = make_state(StateSpec("tmsv", {"r": r}, cutoff=25))
    assert log_negativity_fock(st) == pytest.approx(2.0 * r, abs=1e-9)


def test_log_negativity_product_zero():
    a = make_state(StateSpec("coherent", {"gamma": 0.5}, cutoff=12))
    b = make_state(StateSpec("thermal", {"nbar": 0.3}, cutoff=12))
    assert log_negativity_fock(tensor(a, b)) < 1e-10


def test_log_negativity_werner_endpoints():
    r = 0.1
    pure = make_state(StateSpec("cv_werner", {"f": 1.0, "r": r}, cutoff=10))
    assert log_negativity_fock(pure) == pytest.approx(2.0 * r, abs=1e-9)
    vac = make_state(StateSpec("cv_werner", {"f": 0.0, "r": r}, cutoff=10))
    assert log_negativity_fock(vac) == 0.0
