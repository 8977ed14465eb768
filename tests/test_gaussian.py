import math

import numpy as np
import pytest

from ngcorr.errors import DomainError, UnphysicalCM
from ngcorr.gaussian import (
    GaussianSpec,
    StandardFormCM,
    analytic_cm,
    extract_moments,
    gaussian_log_negativity,
    gaussian_mi,
    moments_from_fock,
    omega,
    reference_gaussian_fock,
    standard_form,
    standard_form_symplectic_eigs,
)
from ngcorr.fock import FockState, partial_trace
from ngcorr.measures import mutual_information
from ngcorr.states import StateSpec, make_state
from ngcorr.xstate import XStateParams, ecs_to_xstate, xstate_mi
from oracles import dense_moments, standard_form_spec, symplectic_eigs, williamson
from sampling import random_density_matrix, random_gaussian_spec, random_standard_form


def test_vacuum_moments():
    st = make_state(StateSpec("vacuum", {"modes": 2}, cutoff=6))
    spec = moments_from_fock(st)
    assert np.allclose(spec.means, 0.0, atol=1e-13)
    assert np.allclose(spec.cm, 0.5 * np.eye(4), atol=1e-13)


def test_tmsv_moments():
    r = 0.35
    st = make_state(StateSpec("tmsv", {"r": r}, cutoff=20))
    spec = moments_from_fock(st)
    ch, sh = 0.5 * math.cosh(2 * r), 0.5 * math.sinh(2 * r)
    expected = np.array(
        [
            [ch, 0, sh, 0],
            [0, ch, 0, -sh],
            [sh, 0, ch, 0],
            [0, -sh, 0, ch],
        ]
    )
    assert np.max(np.abs(spec.cm - expected)) < 1e-10


def test_unphysical_cm_rejected():
    with pytest.raises(UnphysicalCM):
        GaussianSpec(np.zeros(4), 0.1 * np.eye(4))


def test_standard_form_recovers_parameters(rng):
    for _ in range(20):
        sf = random_standard_form(rng)
        spec = random_rotation(rng, sf)
        got = standard_form(spec)
        assert abs(got.a - sf.a) < 1e-9
        assert abs(got.b - sf.b) < 1e-9
        assert abs(got.c - sf.c) < 1e-9
        assert abs(got.d - sf.d) < 1e-9


def random_rotation(rng, sf):
    th1, th2 = rng.uniform(0, 2 * np.pi, 2)
    r1 = np.array([[np.cos(th1), np.sin(th1)], [-np.sin(th1), np.cos(th1)]])
    r2 = np.array([[np.cos(th2), np.sin(th2)], [-np.sin(th2), np.cos(th2)]])
    s = np.block([[r1, np.zeros((2, 2))], [np.zeros((2, 2)), r2]])
    return GaussianSpec(np.zeros(4), s @ sf.assemble() @ s.T)


def test_symplectic_closed_form_vs_spectrum(rng):
    for _ in range(100):
        sf = random_standard_form(rng)
        closed = sorted(standard_form_symplectic_eigs(sf))
        spec = standard_form_spec(sf)
        direct = sorted(symplectic_eigs(spec))
        assert max(abs(x - y) for x, y in zip(closed, direct)) < 1e-10


def test_williamson_invariants(rng):
    for _ in range(10):
        spec = random_gaussian_spec(rng)
        dec = williamson(spec)
        om = omega(2)
        assert np.max(np.abs(dec.S @ om @ dec.S.T - om)) < 1e-9
        diag = dec.S @ spec.cm @ dec.S.T
        target = np.diag(np.repeat(dec.lambdas, 2))
        assert np.max(np.abs(diag - target)) < 1e-8


def test_gaussian_mi_vacuum_zero():
    sf = StandardFormCM(0.5, 0.5, 0.0, 0.0)
    for kind, alpha in (("renyi", 0.7), ("renyi", 1.0), ("sandwiched", 1.3)):
        assert gaussian_mi(kind, sf, alpha) == pytest.approx(0.0, abs=1e-12)
    assert gaussian_mi("hs", sf) == pytest.approx(0.0, abs=1e-12)


def test_gaussian_mi_alpha_one_continuity():
    sf = StandardFormCM(1.4, 1.1, 0.6, -0.5)
    vn = gaussian_mi("renyi", sf, 1.0)
    for kind in ("renyi", "sandwiched"):
        lo = gaussian_mi(kind, sf, 1.0 - 1e-5)
        hi = gaussian_mi(kind, sf, 1.0 + 1e-5)
        assert lo == pytest.approx(vn, abs=1e-3)
        assert hi == pytest.approx(vn, abs=1e-3)


def test_sandwiched_divergence_flags():
    r = 0.3
    ch, sh = 0.5 * math.cosh(2 * r), 0.5 * math.sinh(2 * r)
    tmsv = StandardFormCM(ch, ch, sh, -sh)
    assert math.isinf(gaussian_mi("sandwiched", tmsv, 2.0))
    assert math.isinf(gaussian_mi("sandwiched", tmsv, 3.0))
    assert math.isfinite(gaussian_mi("sandwiched", tmsv, 1.9))


#: The two covariance-matrix and X-state closed forms, each with a
#: correlated and a product state of its own.
CLOSED_FORMS = {
    "gaussian_mi": (gaussian_mi, analytic_cm("ecs_loss", gamma=1.0, eta=0.7),
                    StandardFormCM(1.0, 1.5, 0.0, 0.0)),
    "xstate_mi": (xstate_mi, ecs_to_xstate(1.0, 0.7),
                  XStateParams(0.24, 0.36, 0.16, 0.24)),
}


@pytest.mark.parametrize("route", sorted(CLOSED_FORMS))
def test_a_closed_form_checks_the_kind_before_any_shortcut(route):
    fn, correlated, product = CLOSED_FORMS[route]
    for params in (correlated, product):
        for kind in ("bogus", "hilbert_schmidt", "tr"):
            for alpha in (None, 1.0, 2.0):
                with pytest.raises(ValueError):
                    fn(kind, params, alpha)
        for kind in ("renyi", "sandwiched"):
            for alpha in (None, 0.0, -1.0, math.inf, math.nan):
                with pytest.raises(DomainError):
                    fn(kind, params, alpha)
    for kind in ("renyi", "sandwiched"):
        assert fn("vn", correlated) == fn(kind, correlated, 1.0)
    assert fn("vn", correlated, 2.0) == fn("renyi", correlated, 1.0)
    for kind in ("hs", "bures"):
        assert fn(kind, correlated, 2.0) == fn(kind, correlated)
    assert fn("vn", product) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("r", [0.1, 0.3, 0.6])
def test_fock_bures_mi_meets_the_pure_tmsv_anchor(r):
    # F(psi, rho_A x rho_B) = sum_n p_n^3 = (1 - x)^3 / (1 - x^3), x = tanh^2 r
    x = math.tanh(r) ** 2
    fid = (1.0 - x) ** 3 / (1.0 - x**3)
    exact = math.sqrt(2.0 * (1.0 - math.sqrt(fid)))
    st = make_state(StateSpec("tmsv", {"r": r}, cutoff=30))
    got = mutual_information("bures", st).value
    assert abs(got - exact) < 1e-12
    # the closed form, from the order-1/2 sandwiched value, against the
    # anchor and the Fock route of the synthesized reference
    closed = gaussian_mi("bures", _tmsv_spec(r))
    assert abs(closed - exact) < 1e-12
    reference = reference_gaussian_fock(_tmsv_spec(r), 30)
    assert abs(mutual_information("bures", reference).value - closed) < 1e-12


def _tmsv_spec(r):
    ch, sh = 0.5 * math.cosh(2 * r), 0.5 * math.sinh(2 * r)
    return standard_form_spec(StandardFormCM(ch, ch, sh, -sh))


@pytest.mark.parametrize("r", [0.1, 0.3, 0.6])
def test_sandwiched_half_closed_form_meets_the_pure_tmsv_anchor(r):
    # the order-1/2 sandwiched divergence is -ln F, with F as above
    x = math.tanh(r) ** 2
    got = gaussian_mi("sandwiched", _tmsv_spec(r), 0.5)
    assert abs(got + math.log((1.0 - x) ** 3 / (1.0 - x**3))) < 1e-12


def test_a_local_eigenvalue_at_rounding_distance_from_half_is_a_pure_marginal():
    # a - 1/2 = 1.6e-15 is within the rule's 2 d eps ||Gamma||_F = 1.8e-15,
    # so the marginals are pure and the state a product: every entropic kind
    # reads 0, where the alpha > 1 pipeline would divide by 0^beta
    spec = _tmsv_spec(4e-8)
    for kind in ("renyi", "sandwiched"):
        for alpha in (0.5, 1.5):
            assert gaussian_mi(kind, spec, alpha) == 0.0
    assert gaussian_mi("vn", spec) == 0.0


@pytest.mark.parametrize("r", [0.1, 0.3, 0.6])
def test_fock_renyi_half_mi_meets_the_tmsv_closed_form(r):
    # the marginals' geometric spectra reach far below 1e-12, and at order
    # 1/2 each eigenvalue p adds sqrt(p): all above the numerical rank count
    st = make_state(StateSpec("tmsv", {"r": r}, cutoff=30))
    got = mutual_information("renyi", st, 0.5).value
    assert abs(got - gaussian_mi("renyi", _tmsv_spec(r), 0.5)) < 5e-7


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_fock_sandwiched_mi_of_a_full_rank_tmsv_is_finite(alpha):
    # the target's mass beyond the product's numerical rank is 3.3e-7 here,
    # a truncated tail and no support mismatch
    st = make_state(StateSpec("tmsv", {"r": 0.6}, cutoff=30))
    got = mutual_information("sandwiched", st, alpha).value
    assert got == pytest.approx(gaussian_mi("sandwiched", _tmsv_spec(0.6), alpha), abs=1e-4)


def _mp_ecs_reference_mi(mp, kind, gamma, eta, alpha):
    """``gaussian_mi`` of ``analytic_cm("ecs_loss", ...)`` through the same
    formulas in mpmath, from the exact standard form: a = b, c and d; 'bures'
    through a fidelity formula of its own (``_mp_bures``)."""
    half = mp.mpf(1) / 2
    g2 = 2 * mp.mpf(gamma) ** 2
    x1, x2 = (mp.mpf(eta) * g2 / 2 / mp.sinh(g2) * mp.exp(s * g2) for s in (1, -1))
    a = mp.sqrt((x1 + half) * (x2 + half))
    c, d = a * x1 / (x1 + half), a * x2 / (x2 + half)
    ell, m = a * a + c * d, (a * a - c * c) * (a * a - d * d)
    if kind == "bures":
        return _mp_bures(mp, [[a, 0, c, 0], [0, a, 0, d], [c, 0, a, 0], [0, d, 0, a]])
    lams = [mp.sqrt(ell + s * mp.sqrt(ell * ell - m)) for s in (1, -1)]
    if kind == "vn":
        def entropy(x):
            low = max(x - half, 0)
            return (x + half) * mp.log(x + half) - (low * mp.log(low) if low else 0)

        return 2 * entropy(a) - sum(entropy(x) for x in lams)
    alpha = mp.mpf(alpha)

    def g(x, order):
        return 1 / (mp.mpc(x + half) ** order - mp.mpc(x - half) ** order)

    if kind == "renyi":
        return mp.re(mp.log(g(a, alpha) ** 2 / (g(lams[0], alpha) * g(lams[1], alpha)))
                     / (1 - alpha))
    beta = (1 - alpha) / (2 * alpha)
    om = mp.matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    i2 = 1j * om / 2

    def compose(m1, m2):
        return -i2 + (m2 + i2) * mp.inverse(m1 + m2) * (m1 + i2)

    gm = mp.matrix([[a, 0, c, 0], [0, a, 0, d], [c, 0, a, 0], [0, d, 0, a]])
    zeta = half * ((a + half) ** beta + (a - half) ** beta) / ((a + half) ** beta
                                                              - (a - half) ** beta)
    gp = mp.diag([zeta] * 4)
    h1 = compose(gp, gm)
    h2 = compose(h1, gp)
    lam = [e for e in mp.eig(1j * om * h2, left=False, right=False) if mp.re(e) > 0]
    total = (2 * alpha / (alpha - 1) * mp.log(g(a, beta) ** 2)
             - alpha / (2 * (alpha - 1)) * mp.log(mp.det(gp + gm) * mp.det(h1 + gp))
             + mp.log(g(lam[0], alpha) * g(lam[1], alpha)) / (alpha - 1))
    return mp.re(total)


def _mp_bures(mp, cm):
    """sqrt(2 (1 - sqrt F)) of a zero-mean two-mode Gaussian state of
    covariance ``cm`` and its marginal product, with F from the two-mode
    Gaussian fidelity of Marian & Marian, Phys. Rev. A 86, 022340 (2012):
    F = 1 / (sqrt G + sqrt L - sqrt((sqrt G + sqrt L)^2 - D)), D = det(V1 + V2),
    G = 16 det(Omega V1 Omega V2 - I/4) and L = 16 det(V1 + i Omega/2)
    det(V2 + i Omega/2).  A derivation of its own, not the sandwiched one."""
    v1 = mp.matrix(cm)
    v2 = mp.matrix([[v1[i, j] if i // 2 == j // 2 else 0 for j in range(4)] for i in range(4)])
    om = mp.matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    big_g = 16 * mp.re(mp.det(om * v1 * om * v2 - mp.eye(4) / 4))
    big_l = 16 * mp.re(mp.det(v1 + 1j * om / 2) * mp.det(v2 + 1j * om / 2))
    # L vanishes when a state has a pure mode, as the ECS reference does,
    # and may round below 0
    root = mp.sqrt(big_g) + mp.sqrt(max(0, big_l))
    fid = 1 / (root - mp.sqrt(root * root - mp.det(v1 + v2)))
    return mp.sqrt(2 * (1 - mp.sqrt(fid)))


@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.3, 2.5])
def test_ecs_reference_closed_forms_meet_a_50_digit_evaluation(gamma):
    # the reference's antisymmetric mode is exactly the vacuum, so one
    # symplectic eigenvalue is 1/2, and so is one of the composed matrix's
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for eta in (1.0, 0.825, 0.3):
            spec = analytic_cm("ecs_loss", gamma=gamma, eta=eta)
            cases = [("vn", None), ("bures", None)] + [
                (kind, alpha) for kind in ("renyi", "sandwiched") for alpha in (0.5, 0.75, 1.5)]
            for kind, alpha in cases:
                want = float(_mp_ecs_reference_mi(mpmath.mp, kind, gamma, eta, alpha))
                got = gaussian_mi(kind, spec, alpha)
                assert abs(got - want) < 1e-13, (kind, eta, alpha, got - want)


@pytest.mark.parametrize("f, r", [(0.4, 0.2), (0.7, 0.2), (0.9, 0.05), (0.5, 0.6)])
def test_bures_closed_form_of_the_cv_werner_reference_meets_a_50_digit_fidelity(f, r):
    # the reference (1 - f) I/2 + f V_TMSV(r) is mixed, so its float
    # covariance matrix is a well-conditioned input to the 50-digit formula
    # (rounding it moves the value by at most 2e-15).  The closed form
    # misses by 4e-15 to 1.4e-13, and by 4.6e-12 at r = 0.05, whose marginals
    # are nearly pure; the Fock route of the synthesized reference misses by
    # 3.7e-12 to 3.1e-11, the same at cutoffs 10 to 20: its own error
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        mf, mr = mpmath.mpf(f), mpmath.mpf(r)
        a = (1 - mf) / 2 + mf * mpmath.cosh(2 * mr) / 2
        c = mf * mpmath.sinh(2 * mr) / 2
        want = float(_mp_bures(mpmath.mp, [[a, 0, c, 0], [0, a, 0, -c],
                                           [c, 0, a, 0], [0, -c, 0, a]]))
    tmsv = _tmsv_spec(r).cm
    spec = GaussianSpec(np.zeros(4), (1.0 - f) * 0.5 * np.eye(4) + f * tmsv)
    got = gaussian_mi("bures", spec)
    assert abs(got - want) < 1e-11
    fock = mutual_information("bures", reference_gaussian_fock(spec, 20)).value
    assert abs(fock - got) < 1e-10


@pytest.mark.slow
def test_fock_bures_of_the_lossy_ecs_reference_approaches_the_closed_form():
    # the synthesized reference's truncation error: 1.4e-5, 6.3e-8 and
    # 2.6e-10 at cutoffs 20, 30 and 40
    spec = analytic_cm("ecs_loss", gamma=1.0, eta=0.7)
    closed = gaussian_mi("bures", spec)
    misses = [abs(mutual_information("bures", reference_gaussian_fock(spec, cut)).value
                  - closed) for cut in (20, 30, 40)]
    assert misses[0] > misses[1] > misses[2]
    assert misses[2] < 1e-9


def test_reference_roundtrip_moments():
    spec = analytic_cm("ecs_loss", gamma=1.0, eta=0.5)
    st = reference_gaussian_fock(spec, (30, 30))
    means, cm = extract_moments(st)
    assert np.max(np.abs(cm - spec.cm)) < 1e-6
    assert np.max(np.abs(means)) < 1e-9


def test_reference_roundtrip_with_displacement():
    cm = 0.5 * np.eye(2) * 1.6
    spec = GaussianSpec(np.array([0.5, -0.3]), cm)
    st = reference_gaussian_fock(spec, (25,))
    means, back = extract_moments(st)
    assert np.max(np.abs(means - spec.means)) < 1e-7
    assert np.max(np.abs(back - cm)) < 1e-7


def test_gaussian_log_negativity_tmsv():
    r = 0.3
    ch, sh = 0.5 * math.cosh(2 * r), 0.5 * math.sinh(2 * r)
    spec = standard_form_spec(StandardFormCM(ch, ch, sh, -sh))
    assert gaussian_log_negativity(spec) == pytest.approx(2 * r, abs=1e-10)


def test_gaussian_log_negativity_separable_zero():
    spec = analytic_cm("ecs_loss", gamma=1.0, eta=0.8)
    assert gaussian_log_negativity(spec) == 0.0


#: Amplitudes wider than fig5's draws, and transmittances with one next to 0
SEPARABLE_GAMMAS = np.linspace(0.05, 4.0, 40)
SEPARABLE_ETAS = (0.0, 1e-9, *np.linspace(0.05, 1.0, 20))


def test_the_lossy_ecs_reference_is_separable():
    # Gamma - I/2 = [[X, X], [X, X]] with X = diag(x_q, x_p) >= 0: a mixture
    # of product coherent states |a, a>, so fig5's E_F excess subtracts
    # nothing (measured on this grid: -2.1e-16 relative, E_N 7.1e-15)
    for gamma in SEPARABLE_GAMMAS:
        for eta in SEPARABLE_ETAS:
            spec = analytic_cm("ecs_loss", gamma=gamma, eta=eta)
            lowest = np.linalg.eigvalsh(spec.cm - 0.5 * np.eye(4))[0]
            assert lowest >= -1e-14 * np.linalg.norm(spec.cm), (gamma, eta)
            assert gaussian_log_negativity(spec) <= 1e-12, (gamma, eta)


def test_analytic_cm_ecs_loss_matches_fock():
    from ngcorr.channels import ecs_loss_analytic

    g, eta = 0.9, 0.6
    st = ecs_loss_analytic(g, eta, 24)
    spec = moments_from_fock(st)
    target = analytic_cm("ecs_loss", gamma=g, eta=eta)
    assert np.max(np.abs(spec.cm - target.cm)) < 1e-10


def test_analytic_cm_pnes_matches_fock():
    coeffs = (0.986, 0.162, math.sqrt(1 - 0.986**2 - 0.162**2))
    st = make_state(StateSpec("pnes", {"coeffs": coeffs}, cutoff=8))
    spec = moments_from_fock(st)
    target = analytic_cm("pnes", coeffs=coeffs)
    assert np.max(np.abs(spec.cm - target.cm)) < 1e-12


def test_analytic_cm_ecs_loss_domain():
    # gamma = 0 divides by sinh(0); gamma = 20 overflows exp(2 gamma^2)
    for gamma in (0.0, 20.0):
        with pytest.raises(DomainError):
            analytic_cm("ecs_loss", gamma=gamma, eta=1.0)


def _padded_state(dims, seed, rank=None, pad=1):
    """Random complex state on the lowest dims - pad levels of each mode,
    zero-padded to dims, so the top ``pad`` levels are empty."""
    inner = tuple(d - pad for d in dims)
    rho = random_density_matrix(np.random.default_rng(seed), math.prod(inner), rank)
    full = np.zeros(dims + dims, dtype=complex)
    full[tuple(slice(0, k) for k in inner) * 2] = rho.reshape(inner + inner)
    return FockState(dims, full.reshape(math.prod(dims), -1), validate=False)


@pytest.mark.parametrize("dims", [(7,), (5, 7), (3, 4, 5)])
@pytest.mark.parametrize("rank", [None, 1])
def test_moments_match_the_dense_extraction_on_padded_states(dims, rank):
    state = _padded_state(dims, seed=sum(dims), rank=rank)
    assert state.tail_mass == 0.0
    means, cm = extract_moments(state)
    dense_means, dense_cm = dense_moments(state)
    assert np.max(np.abs(means - dense_means)) < 1e-12
    assert np.max(np.abs(cm - dense_cm)) < 1e-12


def test_moments_of_the_near_pure_lossy_ecs_match_the_dense_extraction():
    from ngcorr.channels import ecs_loss_analytic

    state = ecs_loss_analytic(1.0, 0.999, 24)
    assert state.tail_mass < 1e-16
    means, cm = extract_moments(state)
    dense_means, dense_cm = dense_moments(state)
    assert np.max(np.abs(means - dense_means)) < 1e-12
    assert np.max(np.abs(cm - dense_cm)) < 1e-12


@pytest.mark.parametrize("dims", [(6,), (4, 5), (3, 4, 3)])
def test_moments_use_the_commutator_exactly_when_the_top_level_is_populated(dims):
    # (cm_qq + cm_pp + <q>^2 + <p>^2) / 2 = <a† a> + 1/2 holds on the padded
    # state; the truncated quadrature matrices miss N p_(N-1) of it
    state = _padded_state(dims, seed=len(dims), pad=0)
    assert state.tail_mass > 1e-3
    means, cm = extract_moments(state)
    for j, d in enumerate(dims):
        pops = np.diagonal(partial_trace(state, [j]).rho).real
        second = cm[2 * j, 2 * j] + cm[2 * j + 1, 2 * j + 1]
        second += means[2 * j] ** 2 + means[2 * j + 1] ** 2
        assert abs(0.5 * second - (np.arange(d) @ pops + 0.5)) < 1e-12
