import math

import numpy as np
import pytest

from ngcorr.errors import BadModeIndex, DimMismatch, InvalidState
from ngcorr.fock import (
    FockState,
    _ladder_raw,
    distance,
    fidelity,
    ladder_ops,
    overlap,
    partial_trace,
    partial_transpose,
    pure_state,
    quadrature_ops,
    tensor,
    truncate_state,
)
from ngcorr.sampling import random_density_matrix
from ngcorr.states import StateSpec, make_state
from oracles import expect


def test_ladder_commutator_interior():
    ops = ladder_ops(12)
    comm = ops.q @ ops.p - ops.p @ ops.q
    # [q, p] = i away from the truncation edge
    assert np.allclose(comm[:10, :10], 1j * np.eye(12)[:10, :10])


def test_number_operator():
    ops = ladder_ops(6)
    assert np.allclose(np.diag(ops.number).real, np.arange(6))


def test_ladder_ops_are_read_only():
    for op in ladder_ops(5):
        with pytest.raises(ValueError):
            op[0, 0] = 1.0


def test_partial_trace_of_product(rng):
    a = random_density_matrix(rng, 3)
    b = random_density_matrix(rng, 4)
    st = FockState((3, 4), np.kron(a, b), validate=False)
    ra = partial_trace(st, [0])
    rb = partial_trace(st, [1])
    assert np.allclose(ra.rho, a, atol=1e-13)
    assert np.allclose(rb.rho, b, atol=1e-13)


def test_partial_trace_bad_mode():
    st = make_state(StateSpec("vacuum", {"modes": 2}, cutoff=3))
    with pytest.raises(BadModeIndex):
        partial_trace(st, [5])


def test_partial_transpose_involution(rng):
    rho = random_density_matrix(rng, 9)
    st = FockState((3, 3), rho, validate=False)
    pt = partial_transpose(st, 1)
    st2 = FockState((3, 3), pt, validate=False)
    back = partial_transpose(st2, 1)
    assert np.allclose(back, rho, atol=1e-14)


def test_partial_transpose_is_hermitian(rng):
    st = FockState((3, 4), random_density_matrix(rng, 12), validate=False)
    for mode in (0, 1):
        pt = partial_transpose(st, mode)
        assert np.max(np.abs(pt - pt.conj().T)) <= 1e-10


def test_trace_distance_orthogonal_pure():
    v0 = np.array([1.0, 0.0])
    v1 = np.array([0.0, 1.0])
    a = pure_state(v0, (2,))
    b = pure_state(v1, (2,))
    assert distance("trace", a, b) == pytest.approx(1.0, abs=1e-14)
    assert distance("hilbert_schmidt", a, b) == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_uhlmann_fidelity_pure_overlap(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    w = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    w /= np.linalg.norm(w)
    a = pure_state(v, (4,))
    b = pure_state(w, (4,))
    assert fidelity("uhlmann", a, b) == pytest.approx(abs(np.vdot(v, w)) ** 2, abs=1e-12)


def test_superfidelity_upper_bounds_fidelity(rng):
    for _ in range(20):
        a = FockState((6,), random_density_matrix(rng, 6), validate=False)
        b = FockState((6,), random_density_matrix(rng, 6), validate=False)
        assert fidelity("super", a, b) >= fidelity("uhlmann", a, b) - 1e-10


def test_overlap_matches_trace(rng):
    a = random_density_matrix(rng, 5)
    b = random_density_matrix(rng, 5)
    sa = FockState((5,), a, validate=False)
    sb = FockState((5,), b, validate=False)
    assert overlap(sa, sb) == pytest.approx(np.trace(a @ b).real, abs=1e-13)


def test_expect_coherent_annihilation():
    st = make_state(StateSpec("coherent", {"gamma": 0.7}, cutoff=20))
    a = ladder_ops(20).annihilation
    assert expect(a, st) == pytest.approx(0.7, abs=1e-9)


def test_tensor_shapes():
    a = make_state(StateSpec("vacuum", {"modes": 1}, cutoff=3))
    b = make_state(StateSpec("coherent", {"gamma": 0.3}, cutoff=8))
    ab = tensor(a, b)
    assert ab.dims == (3, 8)
    assert np.trace(ab.rho).real == pytest.approx(1.0, abs=1e-12)


def test_dim_mismatch_raises():
    with pytest.raises(DimMismatch):
        FockState((2, 2), np.eye(3) / 3.0)


def test_validation_catches_bad_trace():
    with pytest.raises(ValueError):
        FockState((2,), np.eye(2))


def test_truncate_state_preserves_moments():
    from ngcorr.gaussian import extract_moments

    st = make_state(StateSpec("ecs", {"gamma": 0.5}, cutoff=24))
    small = truncate_state(st, tol=1e-12)
    assert max(small.dims) < 24
    m0, cm0 = extract_moments(st)
    m1, cm1 = extract_moments(small)
    assert np.max(np.abs(cm1 - cm0)) < 1e-9
    assert np.max(np.abs(m1 - m0)) < 1e-9


def test_validation_errors_are_named():
    with pytest.raises(InvalidState):
        FockState((2,), np.eye(2))
    with pytest.raises(InvalidState):
        FockState((2,), np.array([[0.5, 0.1], [0.0, 0.5]]))


def test_cached_operator_arrays_are_read_only():
    with pytest.raises(ValueError):
        _ladder_raw(7)[0, 1] = 0.0
    for op in quadrature_ops((3, 4)):
        with pytest.raises(ValueError):
            op[0, 0] = 1.0
