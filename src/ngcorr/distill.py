"""Beam-splitter/homodyne distillation protocol for two-mode states.

Each mode is mixed with a vacuum ancilla on a beam splitter; the ancillas
are projected onto quadrature eigenstates and the surviving two-mode state
is renormalized.  The four-mode intermediate is never materialized as a
density matrix: the input is decomposed into pure branches and each branch
is propagated as an amplitude tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import beam_splitter
from .errors import BadSpec, ZeroWeight
from .fock import FockState, hermitize

#: Branch probabilities below this are dropped from the eigendecomposition.
BRANCH_FLOOR = 1e-14


@dataclass(frozen=True)
class DistillConfig:
    """Protocol parameters: beam-splitter transmittance, postselected
    quadrature outcomes, and the ancilla cutoff."""

    eta_bs: float
    x_c: float
    x_d: float
    cutoff: int = 12

    def __post_init__(self):
        if not 0.0 < self.eta_bs <= 1.0:
            raise BadSpec(f"eta_bs = {self.eta_bs} outside (0, 1]")
        if not (math.isfinite(self.x_c) and math.isfinite(self.x_d)):
            raise BadSpec("quadrature outcomes must be finite")
        if self.cutoff < 2:
            raise BadSpec("ancilla cutoff must be >= 2")


def quadrature_eigenvector(x, cutoff):
    """Components <n|x> of the (delta-normalized) q-eigenstate at outcome x.

    Hermite-function three-term recursion, numerically stable for
    moderate |x| and cutoff.
    """
    psi = np.zeros(cutoff)
    psi[0] = math.pi**-0.25 * math.exp(-0.5 * x * x)
    if cutoff > 1:
        psi[1] = x * math.sqrt(2.0) * psi[0]
    for n in range(2, cutoff):
        psi[n] = x * math.sqrt(2.0 / n) * psi[n - 1] - math.sqrt(
            (n - 1.0) / n
        ) * psi[n - 2]
    return psi.astype(complex)


def _projected_bs(dim, config, x):
    """Matrix M with M[j, i] = <x|_anc U_bs |i>|0>_anc restricted to one mode."""
    u = beam_splitter(float(config.eta_bs), (dim, config.cutoff))
    u4 = u.reshape(dim, config.cutoff, dim, config.cutoff)[:, :, :, 0]
    xvec = quadrature_eigenvector(x, config.cutoff)
    return np.tensordot(xvec.conj(), u4, axes=([0], [1]))


def distill(state, config):
    """Postselected output state and its outcome weight (a density).

    Returns (out, weight); weight is the unnormalized denominator of the
    postselection and scales like a probability density over (x_c, x_d).
    """
    if state.n_modes != 2:
        raise BadSpec("distillation protocol defined for two-mode inputs")
    da, db = state.dims
    ma = _projected_bs(da, config, config.x_c)
    mb = _projected_bs(db, config, config.x_d)
    spec = state.spectrum()
    out = np.zeros((da * db, da * db), dtype=complex)
    weight = 0.0
    for idx, w, v in zip(spec.sectors, spec.values, spec.vectors):
        branches = np.zeros((da * db, w.size), dtype=v.dtype)
        branches[idx] = v
        for p, vec in zip(w, branches.T):
            if p <= BRANCH_FLOOR:
                continue
            amp = ma @ vec.reshape(da, db) @ mb.T
            flat = amp.ravel()
            out += p * np.outer(flat, flat.conj())
            weight += p * float(np.real(np.vdot(flat, flat)))
    if weight < 1e-14:
        raise ZeroWeight(f"postselection weight {weight:.3e} vanishes")
    return FockState(state.dims, hermitize(out) / weight, validate=False), weight
