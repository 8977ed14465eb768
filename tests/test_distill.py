import math

import numpy as np
import pytest

from ngcorr.distill import DistillConfig, _projected_bs, distill, quadrature_eigenvector
from ngcorr.entanglement import log_negativity_fock
from ngcorr.errors import BadSpec, ZeroWeight
from ngcorr.fock import distance, ladder_ops
from ngcorr.states import StateSpec, make_state
from oracles import beam_splitter


def test_quadrature_eigenvector_interior_rows():
    # truncated q has a defective top row, so the eigenrelation is asserted
    # on the interior rows only
    x, cut = 0.8, 40
    psi = quadrature_eigenvector(x, cut)
    q = ladder_ops(cut).q
    resid = (q @ psi - x * psi)[: cut - 1]
    assert np.max(np.abs(resid)) < 1e-12


def test_quadrature_eigenvector_vacuum_overlap():
    x = 0.8
    psi = quadrature_eigenvector(x, 30)
    expected = math.pi**-0.25 * math.exp(-0.5 * x * x)
    assert psi[0].real == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("extra", [0, 3])
@pytest.mark.parametrize("eta", [0.05, 0.3, 0.9, 1.0])
@pytest.mark.parametrize("dim", [6, 10, 12])
def test_projected_bs_matches_the_dense_unitary(dim, eta, extra):
    # <x|_anc U |i>|0>_anc of the eigensolved unitary, whose ancilla cutoff
    # keeps every photon-number sector of the input whole
    anc = dim + extra
    u = beam_splitter(eta, (dim, anc)).reshape(dim, anc, dim, anc)[:, :, :, 0]
    for x in (-1.3, 0.8, 3.0):
        want = np.tensordot(quadrature_eigenvector(x, anc), u, axes=([0], [1]))
        got = _projected_bs(dim, DistillConfig(eta, x, x), x)
        assert got.dtype == float
        assert np.max(np.abs(got - want)) < 1e-12


def test_unit_transmittance_identity():
    st = make_state(StateSpec("cv_werner", {"f": 0.5, "r": 0.1}, cutoff=10))
    out, weight = distill(st, DistillConfig(1.0, 0.8, 0.8))
    assert distance("trace", st, out) < 1e-12
    vac_amp = math.pi**-0.25 * math.exp(-0.5 * 0.64)
    assert weight == pytest.approx(vac_amp**4, abs=1e-12)


def test_vacuum_fixed_point():
    st = make_state(StateSpec("vacuum", {"modes": 2}, cutoff=8))
    out, _ = distill(st, DistillConfig(0.7, 0.5, 0.5))
    assert out.rho[0, 0].real == pytest.approx(1.0, abs=1e-12)


def test_distillation_gain_exists_at_strong_postselection():
    # positive control: the protocol does raise the negativity for strong
    # postselection outcomes on the weakly squeezed mixture
    st = make_state(StateSpec("cv_werner", {"f": 0.2, "r": 0.05}, cutoff=14))
    before = log_negativity_fock(st)
    out, _ = distill(st, DistillConfig(0.9, 3.0, 3.0))
    assert log_negativity_fock(out) > before


@pytest.mark.xfail(
    strict=True,
    reason="no published-parameter gain: at transmittance 0.9 and outcome 0.8 "
    "the 10% beam-splitter attenuation always outweighs the postselection "
    "reweighting for squeezing 0.05 (measured loss 1e-4..1e-2 across the "
    "whole fraction range, converged in cutoff, robust to sign/phase/scale "
    "conventions); see CHANGES.md",
)
def test_distillation_gain_at_published_parameters():
    st = make_state(StateSpec("cv_werner", {"f": 0.5, "r": 0.05}, cutoff=14))
    before = log_negativity_fock(st)
    out, _ = distill(st, DistillConfig(0.9, 0.8, 0.8))
    assert log_negativity_fock(out) > before


def test_zero_weight_raises():
    st = make_state(StateSpec("vacuum", {"modes": 2}, cutoff=8))
    with pytest.raises(ZeroWeight):
        distill(st, DistillConfig(0.9, 9.0, 9.0))


def test_bad_config_rejected():
    with pytest.raises(BadSpec):
        DistillConfig(0.0, 0.5, 0.5)
    with pytest.raises(BadSpec):
        DistillConfig(0.5, math.inf, 0.5)
