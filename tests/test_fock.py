import math

import numpy as np
import pytest

from ngcorr.channels import apply_loss, ecs_loss_analytic
from ngcorr.distill import DistillConfig, distill
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
from ngcorr.gaussian import moments_from_fock
from ngcorr.measures import (_lower_bounds, averaged_states, marginal_product,
                             ng_correlation, reference_state)
from ngcorr.states import StateSpec, make_state
from oracles import expect
from sampling import random_density_matrix


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


def test_partial_trace_keeping_every_mode_is_the_state_itself(rng):
    st = FockState((3, 4), random_density_matrix(rng, 12), validate=False)
    assert partial_trace(st, [1, 0]) is st


def _builds(monkeypatch):
    """The dims of every FockState built from now on."""
    built, init = [], FockState.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(FockState, "__init__", counted)
    return built


def test_moments_build_only_the_single_mode_marginals(monkeypatch):
    # the pair marginal of a two-mode state is the state: moments_from_fock
    # builds two FockStates, rho_A and rho_B
    state = ecs_loss_analytic(1.0, 0.7, 12)
    built = _builds(monkeypatch)
    moments_from_fock(state)
    assert built == [(12,), (12,)]


def test_the_moments_and_the_marginal_product_share_the_marginals(monkeypatch):
    # ng:tr builds rho_A and rho_B once, for the moments and for rho_A x rho_B,
    # and sigma_A and sigma_B once; the two-mode builds are sigma, the two
    # products and the averaged pair
    state = ecs_loss_analytic(1.0, 0.7, 12)
    built = _builds(monkeypatch)
    ng_correlation("tr", state)
    assert sorted(built) == [(12,)] * 4 + [(12, 12)] * 5


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
    assert fidelity(a, b) == pytest.approx(abs(np.vdot(v, w)) ** 2, abs=1e-12)


def test_superfidelity_upper_bounds_fidelity(rng):
    # the superfidelity G = exp(-lb1) of the bound formula both ng routes use
    for _ in range(20):
        a = FockState((6,), random_density_matrix(rng, 6), validate=False)
        b = FockState((6,), random_density_matrix(rng, 6), validate=False)
        lb1, _ = _lower_bounds(overlap(a, a), overlap(b, b), overlap(a, b))
        assert math.exp(-lb1) >= fidelity(a, b) - 1e-10


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


#: A state of every family with real parameters.
REAL_SPECS = (
    StateSpec("vacuum", {}),
    StateSpec("coherent", {"gamma": -0.7}),
    StateSpec("thermal", {"nbar": 0.2}),
    StateSpec("cat", {"gamma": 0.8, "sign": -1}),
    StateSpec("ecs", {"gamma": 1.0}, cutoff=14),
    StateSpec("pnes", {"coeffs": (0.6, -0.8)}),
    StateSpec("tmsv", {"r": 0.3}),
    StateSpec("cv_werner", {"f": 0.4, "r": 0.2}),
    StateSpec("photon_correlated", {"nbar": 0.3}),
)


@pytest.mark.parametrize("spec", REAL_SPECS, ids=lambda s: s.family)
def test_a_real_state_is_stored_as_float64(spec):
    assert make_state(spec).rho.dtype == np.float64


def test_real_states_stay_float64_through_every_builder():
    state = make_state(StateSpec("ecs", {"gamma": 1.0}, cutoff=14))
    lossy = apply_loss(state, 0.7)
    built = {
        "apply_loss": lossy,
        "ecs_loss_analytic": ecs_loss_analytic(1.0, 0.7, 14),
        "reference_state": reference_state(lossy),
        "averaged_states": averaged_states(lossy)[0],
        "averaged_states[1]": averaged_states(lossy)[1],
        "marginal_product": marginal_product(lossy),
        "distill": distill(state, DistillConfig(0.9, 0.8, 0.8))[0],
    }
    for name, out in built.items():
        assert out.rho.dtype == np.float64, name


@pytest.mark.parametrize("spec", (
    StateSpec("coherent", {"gamma": 0.3 + 0.5j}),
    StateSpec("cat", {"gamma": 0.3 + 0.5j}),
    StateSpec("ecs", {"gamma": 0.3 + 0.5j}, cutoff=14),
    StateSpec("pnes", {"coeffs": (0.6, 0.8j)}),
), ids=lambda s: s.family)
def test_complex_amplitudes_keep_complex128(spec):
    state = make_state(spec)
    assert state.rho.dtype == np.complex128
    if state.n_modes == 2:
        assert distill(state, DistillConfig(0.9, 0.8, 0.8))[0].rho.dtype == np.complex128
