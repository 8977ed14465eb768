"""The Hermite-recurrence Gaussian reference against a Gibbs-exponential oracle.

The oracle builds the state as exp(-h) for the quadratic form h fixed by the
Williamson decomposition, in a Fock space enlarged by a margin of levels,
displaces it there and truncates back.  It is dense and slow (an eigensolve
of the enlarged two-mode space) and only converges where the state's tail
has converged, so it is compared only there.
"""

import math

import numpy as np
import pytest

from ngcorr.fock import ladder_ops
from ngcorr.gaussian import (
    GaussianSpec,
    StandardFormCM,
    reference_gaussian_fock,
)
from ngcorr.states import StateSpec, make_state
from oracles import displacement, williamson
from sampling import random_gaussian_spec

#: Near-pure symplectic eigenvalues are capped at 1/2 + this margin before
#: forming the Gibbs exponent, which is infinite for a pure state.
PURITY_CAP = 1e-13

#: Extra levels per mode.  The top level of the truncated quadratic form
#: lacks its upward ladder coupling, which gives a spurious low eigenvalue;
#: building in an enlarged space and truncating back removes it.
GIBBS_MARGIN = 8


def gibbs_reference(spec, dims):
    """Dense Gibbs-exponential synthesis; returns (rho, tail mass)."""
    n = spec.n_modes
    dec = williamson(spec)
    lambdas = np.maximum(np.array(dec.lambdas), 0.5 + PURITY_CAP)
    betas = np.log((lambdas + 0.5) / (lambdas - 0.5))
    g = dec.S.T @ np.diag(np.repeat(betas, 2)) @ dec.S
    work = tuple(dm + GIBBS_MARGIN for dm in dims)
    quads = [(ladder_ops(dm).q, ladder_ops(dm).p) for dm in work]
    d = math.prod(work)
    h = np.zeros((d, d), dtype=complex)
    for i in range(2 * n):
        mi, ai = divmod(i, 2)
        for j in range(2 * n):
            mj, aj = divmod(j, 2)
            factors = [np.eye(dm) for dm in work]
            if mi == mj:
                factors[mi] = quads[mi][ai] @ quads[mi][aj]
            else:
                factors[mi] = quads[mi][ai]
                factors[mj] = quads[mj][aj]
            term = factors[0]
            for f in factors[1:]:
                term = np.kron(term, f)
            h += 0.5 * g[i, j] * term
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    rho = (v * np.exp(-(w - w[0]))) @ v.conj().T
    disp = np.eye(1)
    for m in range(n):
        alpha = (spec.means[2 * m] + 1j * spec.means[2 * m + 1]) / math.sqrt(2.0)
        disp = np.kron(disp, displacement(alpha, work[m]))
    rho = disp @ rho @ disp.conj().T
    sl = tuple(slice(0, dm) for dm in dims)
    dd = math.prod(dims)
    rho = rho.reshape(*work, *work)[sl + sl].reshape(dd, dd)
    rho = rho / np.trace(rho).real
    diag = np.real(np.diagonal(rho)).reshape(dims)
    tail = max(
        float(np.sum(np.take(diag, dm - 1, axis=m))) for m, dm in enumerate(dims)
    )
    return rho, tail


@pytest.mark.slow
def test_matches_gibbs_oracle_on_displaced_random_specs():
    rng = np.random.default_rng(7)
    compared = 0
    for _ in range(60):
        base = random_gaussian_spec(rng, max_local=1.0)
        spec = GaussianSpec(rng.normal(scale=0.3, size=4), base.cm)
        got = reference_gaussian_fock(spec, (20, 20))
        # the cheap tail screens out draws the oracle cannot resolve either
        if got.tail_mass >= 1e-10:
            continue
        oracle, tail = gibbs_reference(spec, (20, 20))
        if tail >= 1e-10:
            continue
        assert np.max(np.abs(got.rho - oracle)) <= 1e-9
        compared += 1
    assert compared >= 20


def test_matches_gibbs_oracle_single_mode_displaced_squeezed():
    th, r = 0.7, 0.3
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    cm = 0.6 * rot @ np.diag([math.exp(2 * r), math.exp(-2 * r)]) @ rot.T
    spec = GaussianSpec(np.array([0.8, -0.5]), cm)
    oracle, tail = gibbs_reference(spec, (40,))
    assert tail < 1e-10
    got = reference_gaussian_fock(spec, 40)
    assert np.max(np.abs(got.rho - oracle)) <= 1e-9


@pytest.mark.parametrize("r", [1.0, 1.2])
def test_pure_tmsv_reference_is_exact_at_large_cutoff(r):
    ch, sh = 0.5 * math.cosh(2 * r), 0.5 * math.sinh(2 * r)
    spec = StandardFormCM(ch, ch, sh, -sh).to_spec()
    got = reference_gaussian_fock(spec, (60, 60))
    assert np.all(np.isfinite(got.rho))
    want = make_state(StateSpec("tmsv", {"r": r}, cutoff=60)).rho
    want = want / np.trace(want).real
    assert np.max(np.abs(got.rho - want)) <= 1e-12
