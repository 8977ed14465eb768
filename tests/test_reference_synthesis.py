"""The Hermite-recurrence Gaussian reference against a Gibbs-exponential oracle.

The oracle builds the state as exp(-h) for the quadratic form h fixed by the
Williamson decomposition, in a Fock space enlarged by a margin of levels,
displaces it there and truncates back.  It is dense and slow (an eigensolve
of the enlarged two-mode space) and only converges where the state's tail
has converged, so it is compared only there.
"""

import math
from functools import partial

import numpy as np
import pytest

from ngcorr import gaussian
from ngcorr.cli import measure_rows
from ngcorr.figures import run_figure
from ngcorr.fock import ladder_ops
from ngcorr.gaussian import (
    GaussianSpec,
    StandardFormCM,
    moments_from_fock,
    reference_gaussian_fock,
)
from ngcorr.states import StateSpec, make_state
from oracles import displacement, standard_form_spec, williamson
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
    spec = standard_form_spec(StandardFormCM(ch, ch, sh, -sh))
    got = reference_gaussian_fock(spec, (60, 60))
    assert np.all(np.isfinite(got.rho))
    want = make_state(StateSpec("tmsv", {"r": r}, cutoff=60)).rho
    want = want / np.trace(want).real
    assert np.max(np.abs(got.rho - want)) <= 1e-12


def _hermite_dtypes(monkeypatch):
    """The dtype of every Hermite tensor the Gaussian reference synthesizes
    from here on."""
    seen = []
    original = gaussian._hermite_tensor

    def spy(a_mat, y, shape):
        h = original(a_mat, y, shape)
        seen.append(h.dtype)
        return h

    monkeypatch.setattr(gaussian, "_hermite_tensor", spy)
    return seen


#: Every figure that synthesizes a reference, at a few points, and
#: ``measure_state`` on each family with a real reference.
REAL_REFERENCE_RUNS = {
    "fig2ef": lambda: run_figure(
        "fig2ef", {"gamma": (0.5, 1.0, 2), "eta": (0.5, 0.9, 2)}, threads=1),
    "fig4": lambda: run_figure("fig4", {"eta": (0.5, 0.9, 2)}, threads=1),
    "fig6a": lambda: run_figure("fig6a", {"f": (0.3, 0.7, 2)}, threads=1),
    "fig6b": lambda: run_figure("fig6b", {"samples": 2, "seed": 3}, threads=1),
    **{spec.family: partial(measure_rows, spec, ["delta:tr", "ng:tr"]) for spec in (
        StateSpec("ecs", {"gamma": 1.0}, cutoff=14, eta=0.7),
        StateSpec("tmsv", {"r": 0.3}, cutoff=14),
        StateSpec("cv_werner", {"f": 0.4, "r": 0.2}, cutoff=10),
        StateSpec("pnes", {"coeffs": (0.6, -0.8)}, cutoff=8),
    )},
}


@pytest.mark.parametrize("case", sorted(REAL_REFERENCE_RUNS))
def test_a_real_reference_is_synthesized_in_float64(case, monkeypatch):
    seen = _hermite_dtypes(monkeypatch)
    rows = REAL_REFERENCE_RUNS[case]()
    assert all(row["status"] == "ok" for row in rows)
    assert seen and set(seen) == {np.dtype(np.float64)}


@pytest.mark.parametrize("means, cm", [
    ([0.0, 0.4], 0.5 * np.eye(2)),
    ([0.0, 0.0], [[0.7, 0.2], [0.2, 0.6]]),
], ids=["p-mean", "qp-covariance"])
def test_a_displaced_or_qp_correlated_reference_stays_complex(means, cm, monkeypatch):
    seen = _hermite_dtypes(monkeypatch)
    ref = reference_gaussian_fock(GaussianSpec(np.array(means), np.array(cm)), 16)
    assert seen == [np.dtype(np.complex128)]
    assert ref.rho.dtype == np.complex128


@pytest.mark.parametrize("cutoff", [20, 30])
def test_the_real_synthesis_meets_the_complex_one(cutoff, monkeypatch):
    spec = moments_from_fock(make_state(StateSpec("ecs", {"gamma": 1.0}, cutoff=cutoff, eta=0.7)))
    real = reference_gaussian_fock(spec, cutoff).rho
    # the same A and y, cast to complex128 before the recurrence
    monkeypatch.setattr(gaussian, "_stored", lambda arr: np.asarray(arr, dtype=complex))
    cplx = reference_gaussian_fock(spec, cutoff).rho
    assert real.dtype == np.float64
    assert np.max(np.abs(real - cplx)) <= 1e-15 * np.max(np.abs(real))
