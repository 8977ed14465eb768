"""Beam-splitter/homodyne distillation protocol for two-mode states.

Each mode is mixed with a vacuum ancilla on a beam splitter; the ancillas
are projected onto quadrature eigenstates and the surviving two-mode state
is renormalized.  With vacuum in the ancilla port, the beam splitter and the
projection act on each mode as one real matrix (``_projected_bs``), so the
four-mode intermediate is never formed: the output is (M_a x M_b) rho
(M_a x M_b)^T, applied one mode at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import _loss_amplitudes
from .errors import BadSpec, ZeroWeight
from .fock import FockState, hermitize


@dataclass(frozen=True)
class DistillConfig:
    """Protocol parameters: beam-splitter transmittance and postselected
    quadrature outcomes."""

    eta_bs: float
    x_c: float
    x_d: float

    def __post_init__(self):
        if not 0.0 < self.eta_bs <= 1.0:
            raise BadSpec(f"eta_bs = {self.eta_bs} outside (0, 1]")
        if not (math.isfinite(self.x_c) and math.isfinite(self.x_d)):
            raise BadSpec("quadrature outcomes must be finite")


def quadrature_eigenvector(x, cutoff):
    """Components <n|x> of the (delta-normalized) q-eigenstate at outcome x.

    Hermite-function three-term recursion, numerically stable for
    moderate |x| and cutoff.
    """
    # its own loop: through fock._hermite_tensor it ran 10-17x slower (cutoffs 10-20)
    psi = np.zeros(cutoff)
    psi[0] = math.pi**-0.25 * math.exp(-0.5 * x * x)
    if cutoff > 1:
        psi[1] = x * math.sqrt(2.0) * psi[0]
    for n in range(2, cutoff):
        psi[n] = x * math.sqrt(2.0 / n) * psi[n - 1] - math.sqrt(
            (n - 1.0) / n
        ) * psi[n - 2]
    return psi


def _projected_bs(dim, config, x):
    """Real M[j, i] = <j|<x|_anc U_bs |i>|0>_anc = g[j, i] <x|i - j> on one mode.

    With vacuum in one port the beam splitter splits i photons binomially,
    <j, i - j|U_bs|i, 0> = sqrt(C(i, j) eta^j (1 - eta)^(i - j)) (Campos,
    Saleh & Teich, PRA 40, 1371 (1989)): the loss channel's amplitudes g.
    """
    j, i = np.indices((dim, dim))
    psi = quadrature_eigenvector(x, dim)
    return _loss_amplitudes(float(config.eta_bs), dim) * psi[np.maximum(i - j, 0)]


def _apply_rows(ma, mb, mat):
    """(M_a x M_b) @ mat in real arithmetic, one mode at a time; a complex
    mat as its real and imaginary parts side by side."""
    da, db = ma.shape[0], mb.shape[0]
    re = np.ascontiguousarray(mat).view(float)
    re = (ma @ re.reshape(da, -1)).reshape(da, db, -1)
    return (mb @ re).view(mat.dtype).reshape(mat.shape)


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
    # y = L (L rho)^T = (L rho L^T)^T for the real L = M_a x M_b; the
    # Hermitian part of y^T is that of conj(y), which keeps rows contiguous
    y = _apply_rows(ma, mb, _apply_rows(ma, mb, state.rho).T)
    weight = float(np.trace(y).real)
    if weight < 1e-14:
        raise ZeroWeight(f"postselection weight {weight:.3e} vanishes")
    return FockState(state.dims, hermitize(y.conj()) / weight, validate=False), weight
