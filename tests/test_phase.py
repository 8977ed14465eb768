"""The phase-space term sums (ngcorr.phase) and the lb1/lb2 bounds taken from
them (measures.ng_bounds), against the Fock route and a 50-digit evaluation."""

import math

import numpy as np
import pytest

from ngcorr import phase
from ngcorr.channels import ecs_loss_analytic
from ngcorr.errors import BadEta, DomainError
from ngcorr.figures import FIGURES, PHASE_GAMMA_RANGE, _lossy_bounds, _lossy_ecs_terms, sweep
from ngcorr.gaussian import GaussianSpec, analytic_cm
from ngcorr.measures import ng_bounds, ng_correlation


def _fock_bounds(gamma, eta, cutoff):
    state = ecs_loss_analytic(gamma, eta, cutoff)
    return np.array([ng_correlation(kind, state).value for kind in ("lb1", "lb2")])


@pytest.mark.parametrize("gamma, eta", [(1.0, 0.7), (1.0, 1.0), (1.4, 0.9)])
def test_the_gap_to_the_fock_route_shrinks_with_the_cutoff(gamma, eta):
    exact = np.array(_lossy_bounds({"gamma": gamma, "eta": eta}))
    gaps = [np.abs(_fock_bounds(gamma, eta, cutoff) - exact) for cutoff in (30, 40, 50)]
    assert (gaps[0] > gaps[1]).all() and (gaps[1] > gaps[2]).all(), gaps


@pytest.mark.parametrize("gamma, eta", [(0.5, 0.3), (0.8, 0.2)])
def test_where_the_fock_route_has_converged_the_routes_agree(gamma, eta):
    fock = _fock_bounds(gamma, eta, 30)
    assert np.abs(fock - _fock_bounds(gamma, eta, 40)).max() <= 1e-15
    assert np.abs(fock - _lossy_bounds({"gamma": gamma, "eta": eta})).max() <= 1e-13


def _tmsv(r):
    c, s = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
    return phase.gaussian_state(GaussianSpec(np.zeros(4), np.block(
        [[c * np.eye(2), s * np.diag([1.0, -1.0])], [s * np.diag([1.0, -1.0]), c * np.eye(2)]])))


def _thermal(nbar, means=(0.0, 0.0)):
    return phase.gaussian_state(GaussianSpec(means, (nbar + 0.5) * np.eye(2)))


GAUSSIANS = {
    "tmsv": lambda: _tmsv(0.4),
    "thermal_product": lambda: phase.tensor(_thermal(0.3), _thermal(1.2, (0.5, -0.2))),
    "coherent_product": lambda: phase.tensor(phase.coherent_dyad(0.6 + 0.2j, 0.6 + 0.2j),
                                             phase.coherent_dyad(-0.4j, -0.4j)),
}


@pytest.mark.parametrize("case", sorted(GAUSSIANS))
def test_a_gaussian_state_has_no_non_gaussian_correlation(case):
    lb1, lb2 = ng_bounds(GAUSSIANS[case]())
    assert abs(lb1) <= 1e-15 and abs(lb2) <= 1e-15, (lb1, lb2)


@pytest.mark.parametrize("gamma", [0.2, 0.7, 1.5])
def test_the_term_sums_moments_are_the_analytic_covariance_matrix(gamma):
    for eta in (0.0, 0.3, 0.8, 1.0):
        got = phase.moments(_lossy_ecs_terms({"gamma": gamma, "eta": eta}))
        want = analytic_cm("ecs_loss", gamma=gamma, eta=eta)
        assert np.abs(got.cm - want.cm).max() <= 1e-14, eta
        assert np.abs(got.means).max() <= 1e-14, eta


def _braket(bra, ket):
    """<bra|ket> of two coherent states."""
    return np.exp(-0.5 * (abs(bra) ** 2 + abs(ket) ** 2) + np.conj(bra) * ket)


def test_single_mode_dyad_overlaps_are_coherent_brakets():
    rng = np.random.default_rng(4)
    for _ in range(20):
        alpha, beta, mu, nu = rng.normal(size=4) + 1j * rng.normal(size=4)
        got = phase.overlap(phase.coherent_dyad(alpha, beta), phase.coherent_dyad(mu, nu))
        want = _braket(beta, mu) * _braket(nu, alpha)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))
        # the trace of a dyad is its term's weight
        assert phase.coherent_dyad(alpha, beta).weights[0] == pytest.approx(
            _braket(beta, alpha), rel=1e-14)


def test_loss_trace_and_tensor_act_term_by_term():
    # loss of |a><b| is <b sqrt(1 - eta)|a sqrt(1 - eta)> |a sqrt(eta)><b sqrt(eta)|
    a, b, eta = 0.7 - 0.3j, -0.2 + 0.9j, 0.35
    lossy = phase.loss(phase.coherent_dyad(a, b), eta)
    t = math.sqrt(eta)
    probe = phase.coherent_dyad(0.1 + 0.4j, -0.5j)
    want = (_braket(b * math.sqrt(1 - eta), a * math.sqrt(1 - eta))
            * phase.overlap(phase.coherent_dyad(a * t, b * t), probe))
    assert abs(phase.overlap(lossy, probe) - want) <= 1e-15
    # tr_B (A x B) = A tr B, and the Gaussian purity 1 / (2 nbar + 1)
    pair = phase.tensor(_thermal(0.3), lossy)
    kept = phase.partial_trace(pair, [0])
    assert abs(phase.overlap(kept, kept) - lossy.weights.sum() ** 2 / 1.6) <= 1e-15
    with pytest.raises(BadEta):
        phase.loss(lossy, 1.5)


@pytest.mark.parametrize("gamma, eta", [(1.0, 0.7), (1.4, 0.9), (0.2, 1.0)])
def test_the_bound_chain_holds_against_the_fock_fidelity(gamma, eta):
    fid = ng_correlation("fid", ecs_loss_analytic(gamma, eta, 40)).value
    lb1, lb2 = _lossy_bounds({"gamma": gamma, "eta": eta})
    assert fid >= lb1 >= lb2 > 0.0


def _mp_bounds(mp, gamma, eta):
    """lb1 and lb2 of the lossy ECS from the same term sums in mpmath: each
    term a (weight, covariance, mean) triple, the covariance an mp matrix."""
    half = mp.eye(4) / 2
    norm = 1 / (2 - 2 * mp.exp(-4 * gamma**2))
    rho = []
    for s in (1, -1):
        for t in (1, -1):
            a, b = s * gamma, t * gamma
            weight = norm * s * t * mp.exp(2 * (a * b - (a * a + b * b) / 2))
            mode = [(a + b) / mp.sqrt(2), -1j * (a - b) / mp.sqrt(2)]
            rho.append((weight, half, [mp.sqrt(eta) * x for x in mode * 2]))

    mean = [mp.re(sum(w * m[i] for w, _, m in rho)) for i in range(4)]
    cm = mp.matrix(4, 4)
    for i in range(4):
        for j in range(4):
            cm[i, j] = mp.re(sum(w * (v[i, j] + m[i] * m[j]) for w, v, m in rho)) - mean[i] * mean[j]
    sigma = [(mp.mpf(1), cm, mean)]

    def mode(terms, k):
        return [(w, v[2 * k: 2 * k + 2, 2 * k: 2 * k + 2], m[2 * k: 2 * k + 2])
                for w, v, m in terms]

    def product(terms):
        out = []
        for wa, va, ma in mode(terms, 0):
            for wb, vb, mb in mode(terms, 1):
                v = mp.zeros(4)
                v[0:2, 0:2], v[2:4, 2:4] = va, vb
                out.append((wa * wb, v, ma + mb))
        return out

    def overlap(x, y):
        total = 0
        for wa, va, ma in x:
            for wb, vb, mb in y:
                d = mp.matrix([p - q for p, q in zip(ma, mb)])
                quad = (d.T * mp.lu_solve(va + vb, d))[0]
                total += wa * wb * mp.exp(-quad / 2) / mp.sqrt(mp.det(va + vb))
        return mp.re(total)

    rt = [(w / 2, v, m) for w, v, m in rho + product(sigma)]
    st = [(w / 2, v, m) for w, v, m in sigma + product(rho)]
    rr, ss, rs = overlap(rt, rt), overlap(st, st), overlap(rt, st)
    lb1 = -mp.log(rs + mp.sqrt((1 - rr) * (1 - ss)))
    lb2 = -mp.log(1 - (rr + ss - 2 * rs) / 2)
    return float(mp.re(lb1)), float(mp.re(lb2))


def test_the_bounds_meet_a_50_digit_evaluation_over_the_tested_range():
    mpmath = pytest.importorskip("mpmath")
    low, high = PHASE_GAMMA_RANGE
    with mpmath.workdps(50):
        for gamma in (low, 0.7, high):
            for eta in (0.0, 0.05, 0.5, 1.0):
                want = _mp_bounds(mpmath.mp, mpmath.mpf(gamma), mpmath.mpf(eta))
                got = _lossy_bounds({"gamma": gamma, "eta": eta})
                assert np.abs(np.subtract(got, want)).max() <= 1e-12, (gamma, eta)


@pytest.mark.parametrize("gamma", [0.1, 0.19, 1.6])
def test_the_bounds_are_refused_outside_the_tested_range(gamma):
    # below the range the terms cancel past 1e-12: 2e-11 at gamma = 0.1
    with pytest.raises(DomainError, match="phase-space bounds tested"):
        _lossy_bounds({"gamma": gamma, "eta": 0.5})
    fig = FIGURES["fig5"]
    rows = sweep("fig5", [{"gamma": gamma, "eta": 0.5}], fig.measures, None)
    assert [r["status"] for r in rows] == ["ok", "flagged"]
