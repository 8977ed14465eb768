"""Entanglement monotones: two-qubit entanglement of formation and
logarithmic negativity on truncated Fock states.

All values are in nats.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import check_tail, partial_transpose, spectra


def concurrence_two_qubit(params):
    """Concurrence 2 max(0, |v| - sqrt(bc), |u| - sqrt(ad)) of an X state;
    exact where the spin-flipped spectrum has zero eigenvalues."""
    a, b, c, d = (max(0.0, x) for x in (params.a, params.b, params.c, params.d))
    return 2.0 * max(
        0.0, abs(params.v) - math.sqrt(b * c), abs(params.u) - math.sqrt(a * d)
    )


def eof_two_qubit(params):
    """Entanglement of formation of a two-qubit state, in nats: the binary
    entropy h(q) of q = (1 - sqrt(1 - c^2))/2, formed as
    c^2 / (2 (1 + sqrt(1 - c^2))) and with (1 - q) ln(1 - q) through log1p,
    so both keep full relative precision at small concurrence c."""
    c = concurrence_two_qubit(params)
    q = c * c / (2.0 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c))))
    if q <= 0.0:
        return 0.0
    return -q * math.log(q) - (1.0 - q) * math.log1p(-q)


def log_negativity_fock(state):
    """ln of the partial transpose's trace norm, on a state passing ``fock.check_tail``."""
    check_tail(state.tail_mass, "negativity operand")
    pt = partial_transpose(state, state.n_modes - 1)
    spec = spectra(state.dims, pt, vectors=False)
    return max(0.0, float(math.log(np.sum(np.abs(spec.eigenvalues())))))
