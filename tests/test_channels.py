import math

import numpy as np
import pytest

from ngcorr.channels import apply_loss, ecs_loss_analytic, loss_kraus
from ngcorr.errors import BadEta, DomainError, TruncationError
from ngcorr.fock import (
    FockState,
    cat_vectors,
    coherent_amps,
    distance,
    overlap,
    pure_state,
    tensor,
    truncate_state,
)
from ngcorr.gaussian import analytic_cm
from ngcorr.states import StateSpec, default_cutoff, make_state
from ngcorr.xstate import ecs_to_xstate, ecs_weights
from oracles import beam_splitter, kraus_loss
from sampling import random_density_matrix


def test_loss_kraus_completeness():
    ks = loss_kraus(0.63, 15)
    total = sum(k.conj().T @ k for k in ks)
    assert np.max(np.abs(total - np.eye(15))) < 1e-12


def test_loss_identity_and_full_loss():
    st = make_state(StateSpec("coherent", {"gamma": 0.8}, cutoff=16))
    same = apply_loss(st, 1.0)
    assert distance("trace", st, same) < 1e-12
    dead = apply_loss(st, 0.0)
    assert dead.rho[0, 0].real == pytest.approx(1.0, abs=1e-12)


def test_loss_composition():
    st = make_state(StateSpec("coherent", {"gamma": 0.9}, cutoff=18))
    once = apply_loss(st, 0.6 * 0.7)
    twice = apply_loss(apply_loss(st, 0.7), 0.6)
    assert distance("trace", once, twice) < 1e-12


def test_loss_scales_coherent_amplitude():
    st = make_state(StateSpec("coherent", {"gamma": 1.1}, cutoff=25))
    out = apply_loss(st, 0.49)
    target = make_state(StateSpec("coherent", {"gamma": 1.1 * 0.7}, cutoff=25))
    assert distance("trace", out, target) < 1e-12


def test_beam_splitter_on_coherent_vacuum():
    eta = 0.64
    cut = 18
    g = 0.9
    coh = pure_state(coherent_amps(g, cut), (cut,))
    vac = make_state(StateSpec("vacuum", {"modes": 1}, cutoff=cut))
    joint = tensor(coh, vac)
    u = beam_splitter(eta, (cut, cut))
    from ngcorr.fock import FockState

    out = FockState(joint.dims, u @ joint.rho @ u.conj().T, validate=False)
    ta = pure_state(coherent_amps(g * math.sqrt(eta), cut), (cut,))
    tb = pure_state(coherent_amps(g * math.sqrt(1 - eta), cut), (cut,))
    assert distance("trace", out, tensor(ta, tb)) < 1e-8


def test_hong_ou_mandel_null():
    cut = 6
    vec = np.zeros((cut, cut), dtype=complex)
    vec[1, 1] = 1.0
    joint = pure_state(vec.ravel(), (cut, cut))
    u = beam_splitter(0.5, (cut, cut))
    out = u @ vec.ravel()
    out = out.reshape(cut, cut)
    assert abs(out[1, 1]) < 1e-12  # the coincidence amplitude cancels


@pytest.mark.parametrize("dims", [(6, 6), (10, 12), (12, 12)])
def test_beam_splitter_is_unitary(dims):
    eye = np.eye(dims[0] * dims[1])
    for eta in (0.0, 0.3, 0.9, 1.0):
        u = beam_splitter(eta, dims)
        assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-10


def test_ecs_weights_normalized():
    for g, eta in ((0.5, 0.3), (1.0, 0.8), (1.5, 0.6)):
        w_bell, w_even = ecs_weights(g, eta)
        assert w_bell >= 0 and w_even >= 0
        assert w_bell + w_even == pytest.approx(1.0, abs=1e-12)


def test_ecs_loss_analytic_matches_kraus():
    # the Kraus route truncates the pure state before the loss, so it needs
    # the larger cutoff at the larger amplitudes
    for g, eta, cut in ((0.5, 0.4, 22), (1.0, 0.7, 22), (1.0, 0.0, 22), (1.0, 1.0, 22),
                        (0.2, 1e-9, 22), (0.3, 0.5, 22), (1.2, 0.95, 26), (1.5, 0.3, 26)):
        target = apply_loss(make_state(StateSpec("ecs", {"gamma": g}, cutoff=cut)), eta)
        closed = ecs_loss_analytic(g, eta, cut)
        assert distance("trace", target, closed) < 1e-10, (g, eta)


@pytest.mark.parametrize("cut", [None, 1e-10])
@pytest.mark.parametrize("gamma", [0.2, 1.0, 1.5])
@pytest.mark.parametrize("eta", [0.0, 1e-9, 0.5, 1.0])
def test_ecs_loss_analytic_is_the_rank_two_mixture_of_its_branches(eta, gamma, cut):
    # and so is its cut to the converged support (truncate_state at ``cut``)
    x = ecs_to_xstate(gamma, eta)
    assert x.u == x.b == x.c
    assert abs(x.v**2 - x.a * x.d) <= 4.0 * np.finfo(float).eps * (x.a + x.d) ** 2
    state = ecs_loss_analytic(gamma, eta, default_cutoff(gamma))
    rho = (state if cut is None else truncate_state(state, tol=cut)).rho
    w = np.linalg.eigvalsh(rho)
    tol = 1e-14 if cut is None else 1e-12
    assert np.max(np.abs(w[-2:] - sorted((x.b + x.c, x.a + x.d)))) <= tol
    assert np.max(np.abs(w[:-2])) < 1e-14


@pytest.mark.parametrize("eta", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("gamma", [0.3 + 0.5j, 1.2 * np.exp(0.7j), -0.8j])
def test_ecs_loss_analytic_of_a_complex_amplitude_matches_kraus(gamma, eta):
    # the weights are those of |gamma|; the phase enters through the cat vectors
    target = apply_loss(make_state(StateSpec("ecs", {"gamma": gamma}, cutoff=30)), eta)
    closed = ecs_loss_analytic(gamma, eta, 30)
    assert np.max(np.abs(closed.rho - target.rho)) <= 1e-14
    cols = closed.columns
    assert cols.shape == (900, 2)
    assert np.max(np.abs(cols @ cols.conj().T - closed.rho)) <= 1e-15
    x = ecs_to_xstate(abs(gamma), eta)
    assert np.linalg.norm(cols, axis=0) ** 2 == pytest.approx([x.b + x.c, x.a + x.d], abs=1e-14)


def test_ecs_loss_unit_transmittance_is_pure():
    st = ecs_loss_analytic(0.8, 1.0, 20)
    assert overlap(st, st) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("eta", [-0.1, 1.5])
def test_every_route_rejects_a_transmittance_outside_the_unit_interval(eta):
    state = make_state(StateSpec("ecs", {"gamma": 1.0}, cutoff=12))
    routes = (
        lambda: loss_kraus(eta, 12),
        lambda: apply_loss(state, eta),
        lambda: ecs_loss_analytic(1.0, eta, 12),
        lambda: analytic_cm("ecs_loss", gamma=1.0, eta=eta),
        lambda: ecs_to_xstate(1.0, eta),
    )
    for route in routes:
        with pytest.raises(BadEta):
            route()


def test_ecs_loss_analytic_rejects_nonpositive_gamma():
    for gamma in (0.0, -0.5):
        with pytest.raises(DomainError):
            ecs_loss_analytic(gamma, 0.5, 12)


def test_loss_kraus_operators_are_read_only():
    ks = loss_kraus(0.41, 6)
    with pytest.raises(ValueError):
        ks[0][0, 0] = 2.0


def test_loss_kraus_cache_stays_bounded_over_an_eta_sweep():
    loss_kraus.cache_clear()
    for eta in np.linspace(0.005, 0.995, 100):
        loss_kraus(float(eta), 4)
    info = loss_kraus.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize


def _random_state(dims, seed):
    rho = random_density_matrix(np.random.default_rng(seed), math.prod(dims))
    return FockState(dims, rho, validate=False)


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("case", ["unequal", "one_mode", "three_modes", "near_pure_ecs"])
def test_loss_matches_the_kraus_oracle(case, eta):
    if case == "unequal":
        state = _random_state((5, 7), 1)
    elif case == "one_mode":
        state = _random_state((7,), 2)
    elif case == "three_modes":
        state = _random_state((3, 4, 5), 3)
    else:
        state = make_state(StateSpec("ecs", {"gamma": 1.0}, cutoff=16))
    fast = apply_loss(state, eta)
    assert np.max(np.abs(fast.rho - kraus_loss(state, eta).rho)) < 1e-12
    # the kernel's own output is Hermitian; apply_loss does not hermitize it
    assert np.max(np.abs(fast.rho - fast.rho.conj().T)) <= 1e-15 * np.max(np.abs(fast.rho))


@pytest.mark.parametrize("eta", [0.01, 0.5, 1.0])
@pytest.mark.parametrize("gamma", [0.2, 0.8, 1.3, 1.5])
def test_ecs_cut_on_the_branches_equals_the_truncated_dense_state(gamma, eta):
    # truncate_state on the closed form is the rank-2 mixture of the branch
    # vectors cut to the same dims, renormalised
    cutoff = default_cutoff(gamma)
    full = ecs_loss_analytic(gamma, eta, cutoff)
    assert full.dims == (cutoff, cutoff)
    cut = truncate_state(full, tol=1e-10)
    assert max(cut.dims) < cutoff
    x = ecs_to_xstate(gamma, eta)
    plus, minus = (v.real for v in cat_vectors(math.sqrt(eta) * gamma, cutoff))
    branches = (math.sqrt(x.b) * (np.outer(plus, minus) + np.outer(minus, plus)),
                math.sqrt(x.a) * np.outer(plus, plus) + math.sqrt(x.d) * np.outer(minus, minus))
    kept = [b[: cut.dims[0], : cut.dims[1]] for b in branches]
    rho = sum(np.outer(b, b) for b in kept)
    assert np.max(np.abs(cut.rho - rho / np.trace(rho))) <= 1e-15


def test_ecs_with_nothing_to_cut_is_the_full_state():
    full = ecs_loss_analytic(1.5, 0.5, 12)
    assert truncate_state(full, tol=1e-10) is full


def test_ecs_cut_checks_the_tail_at_the_full_cutoff():
    with pytest.raises(TruncationError):
        truncate_state(ecs_loss_analytic(1.5, 1.0, 12), tol=1e-10)


@pytest.mark.parametrize("cut", [None, 1e-10])
def test_ecs_loss_analytic_is_exactly_hermitian(cut):
    state = ecs_loss_analytic(0.8, 0.5, 20)
    rho = (state if cut is None else truncate_state(state, tol=cut)).rho
    assert np.array_equal(rho, rho.conj().T)


def test_full_loss_of_the_ecs_has_a_real_trace():
    state = make_state(StateSpec("ecs", {"gamma": 1.0}, cutoff=20))
    assert np.trace(apply_loss(state, 0.0).rho).imag == 0.0
