import math

import numpy as np
import pytest

from ngcorr.channels import apply_loss, ecs_loss_analytic
from ngcorr.measures import mutual_information
from ngcorr.states import StateSpec, make_state
from ngcorr.xstate import XStateParams, ecs_to_xstate, xstate_mi
from oracles import bell_params, pure_schmidt_mi, xstate_matrix
from sampling import random_xstate

TWO_LN_2 = 2.0 * math.log(2.0)


def brute_mi(kind, params, alpha):
    """Direct 4x4 evaluation of the closed-form quantities."""
    rho = xstate_matrix(params)
    rho_a = np.array([[rho[0, 0] + rho[1, 1], 0], [0, rho[2, 2] + rho[3, 3]]])
    rho_b = np.array([[rho[0, 0] + rho[2, 2], 0], [0, rho[1, 1] + rho[3, 3]]])
    prod = np.kron(rho_a, rho_b)

    def renyi(mat, a):
        w = np.linalg.eigvalsh(mat)
        w = w[w > 1e-15]
        if a == 1.0:
            return float(-np.sum(w * np.log(w)))
        return float(math.log(np.sum(w**a)) / (1.0 - a))

    if kind == "renyi":
        return renyi(rho_a, alpha) + renyi(rho_b, alpha) - renyi(rho, alpha)
    if kind == "hs":
        return float(np.sqrt(np.sum(np.abs(rho - prod) ** 2)))
    # sandwiched
    if alpha == 1.0:
        w, v = np.linalg.eigh(prod)
        logp = (v * np.log(np.clip(w, 1e-300, None))) @ v.conj().T
        wr, vr = np.linalg.eigh(rho)
        wr = np.clip(wr, 1e-300, None)
        logr = (vr * np.log(wr)) @ vr.conj().T
        return float(np.real(np.trace(rho @ (logr - logp))))
    b = (1.0 - alpha) / (2.0 * alpha)
    w, v = np.linalg.eigh(prod)
    sb = (v * np.where(w > 1e-15, w, 1.0) ** b * (w > 1e-15)) @ v.conj().T
    kern = sb @ rho @ sb
    kw = np.linalg.eigvalsh(0.5 * (kern + kern.conj().T))
    kw = kw[kw > 1e-18]
    return float(math.log(np.sum(kw**alpha)) / (alpha - 1.0))


def test_bell_params_anchor():
    bell = bell_params()
    for kind in ("renyi", "sandwiched"):
        for alpha in (0.5, 1.0, 2.0, 3.0):
            assert xstate_mi(kind, bell, alpha) == pytest.approx(TWO_LN_2, abs=1e-12)
    assert xstate_mi("hs", bell) == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)


def test_closed_forms_vs_bruteforce(rng):
    for _ in range(100):
        params = random_xstate(rng)
        for alpha in (0.5, 0.9, 1.0, 1.1, 2.0, 3.0):
            for kind in ("renyi", "sandwiched"):
                assert xstate_mi(kind, params, alpha) == pytest.approx(
                    brute_mi(kind, params, alpha), abs=1e-10
                )
        assert xstate_mi("hs", params) == pytest.approx(
            brute_mi("hs", params, None), abs=1e-10
        )


def _mp_lossy_ecs_xstate(mp, gamma, eta):
    """``ecs_to_xstate``'s (a, b, c, d, u, v) in mpmath from exact gamma, eta."""
    g, eta = mp.mpf(gamma), mp.mpf(eta)

    def norms(nbar):
        e = mp.exp(-2 * nbar)
        return 2 + 2 * e, 2 - 2 * e

    plus_l, minus_l = norms((2 - 2 * eta) * g * g)
    plus_t, minus_t = norms(2 * eta * g * g)
    denom = 4 * norms(2 * g * g)[1]
    w_bell, w_even = plus_l * minus_t / denom, minus_l * plus_t / denom
    norm = 2 * mp.sqrt(norms(2 * eta * g * g)[0])
    big_a, big_b = (n / norm for n in norms(eta * g * g))
    half = w_bell / 2
    return w_even * big_a**2, half, half, w_even * big_b**2, half, w_even * big_a * big_b


def _mp_mi(mp, kind, x, alpha):
    """Renyi or sandwiched MI of the X state ``x`` from mpmath's eigsy."""
    a, b, c, d, u, v = x
    alpha = mp.mpf(alpha)
    rho = mp.matrix([[a, 0, 0, v], [0, b, u, 0], [0, u, c, 0], [v, 0, 0, d]])
    ma, mb = (a + b, c + d), (a + c, b + d)

    def power_sum(ps):
        return sum(max(p, 0) ** alpha for p in ps)

    if kind == "renyi":
        lam = mp.eigsy(rho, eigvals_only=True)
        return (mp.log(power_sum(ma)) + mp.log(power_sum(mb))
                - mp.log(power_sum(lam))) / (1 - alpha)
    half = (1 - alpha) / (2 * alpha)
    scale = mp.diag([(p * q) ** half for p in ma for q in mb])
    lam = mp.eigsy(scale * rho * scale, eigvals_only=True)
    return mp.log(power_sum(lam)) / (alpha - 1)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5])
def test_closed_forms_meet_mpmath_on_the_rank_deficient_lossy_ecs(gamma):
    # each 2x2 block has rank 1; below order 1 a rounded zero root would
    # add eps^alpha, up to about 2e-8 at alpha = 0.5
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for eta in (0.0625, 0.1125, 0.175, 0.3875, 0.525, 0.8875, 0.9625):
            exact = _mp_lossy_ecs_xstate(mpmath, gamma, eta)
            for alpha in (0.5, 0.75, 0.9375, 1.5, 3.0):
                for kind in ("renyi", "sandwiched"):
                    want = float(_mp_mi(mpmath, kind, exact, alpha))
                    got = xstate_mi(kind, ecs_to_xstate(gamma, eta), alpha)
                    assert got == pytest.approx(want, rel=0, abs=1e-13), (eta, alpha, kind)


def test_ecs_to_xstate_unit_transmittance_is_bell():
    params = ecs_to_xstate(1.0, 1.0)
    bell = bell_params()
    for field in ("a", "b", "c", "d"):
        assert getattr(params, field) == pytest.approx(getattr(bell, field), abs=1e-12)
    assert abs(params.u - bell.u) < 1e-12
    assert abs(params.v - bell.v) < 1e-12


def test_ecs_to_xstate_matches_fock():
    cut = 20
    for g, eta in ((0.8, 0.6), (1.0, 0.3), (1.2, 0.9), (0.5, 1.0), (1.0, 0.05)):
        params = ecs_to_xstate(g, eta)
        kraus = apply_loss(make_state(StateSpec("ecs", {"gamma": g}, cutoff=cut)), eta)
        for state in (kraus, ecs_loss_analytic(g, eta, cut)):
            for kind, alpha in (("renyi", 0.5), ("renyi", 2.0), ("sandwiched", 1.5),
                                ("hs", None)):
                assert xstate_mi(kind, params, alpha) == pytest.approx(
                    mutual_information(kind, state, alpha).value, abs=1e-9
                ), (g, eta, kind)


@pytest.mark.parametrize("gamma, eta", [(1.0, 0.7), (0.8, 0.5), (1.2, 1.0)])
def test_bures_closed_form_meets_the_fock_route_on_the_lossy_ecs(gamma, eta):
    # from the order-1/2 sandwiched value on the X state; the Fock route
    # reads the Uhlmann fidelity of the closed form embedded at cutoff 30
    got = xstate_mi("bures", ecs_to_xstate(gamma, eta))
    want = mutual_information("bures", ecs_loss_analytic(gamma, eta, 30)).value
    assert abs(got - want) < 1e-14


def test_pure_schmidt_bell_consistency():
    coeffs = (1 / math.sqrt(2), 1 / math.sqrt(2))
    for kind in ("renyi", "sandwiched"):
        assert pure_schmidt_mi(kind, coeffs, 1.7) == pytest.approx(TWO_LN_2, abs=1e-12)
    assert pure_schmidt_mi("hs", coeffs) == pytest.approx(math.sqrt(3.0) / 2, abs=1e-12)


def test_pure_schmidt_vs_fock_tmsv():
    r = 0.3
    st = make_state(StateSpec("tmsv", {"r": r}, cutoff=25))
    th = math.tanh(r)
    coeffs = [(1 - th * th) ** 0.5 * th**k for k in range(25)]
    for kind, alpha in (("renyi", 0.6), ("sandwiched", 1.4)):
        # support-floor effects on geometric spectra bound the Fock-route
        # agreement near 1e-7 for orders below one
        assert pure_schmidt_mi(kind, coeffs, alpha) == pytest.approx(
            mutual_information(kind, st, alpha).value, abs=1e-6
        )


def test_xstate_positivity_guard():
    with pytest.raises(Exception):
        XStateParams(a=0.4, b=0.1, c=0.1, d=0.4, v=0.5)
