"""Dense reference routes that the library's direct kernels are tested against.

They are the routes that the library's direct kernels replaced: the loss
channel as a sum over Kraus operators built from powers of the ladder
matrix, the moments as traces against the full-space quadrature operators
of ``fock.quadrature_ops``, and fig5's sampled states built at the full
cutoff and then truncated.  They are slow (O(N^6), O(d^3) and O(d^2)) and
kept only to check the fast routes.
"""

import math

import numpy as np

from ngcorr.channels import apply_loss, ecs_loss_analytic
from ngcorr.fock import (
    FockState,
    _check_modes,
    hermitize,
    ladder_ops,
    quadrature_ops,
    truncate_state,
)
from ngcorr.states import StateSpec, default_cutoff, make_state


def kraus_ops(eta, cutoff):
    """K_k = sqrt((1-eta)^k / k!) eta^(n/2) a^k from powers of the ladder matrix."""
    a = ladder_ops(cutoff).annihilation
    eta_half_n = math.sqrt(eta) ** np.arange(cutoff)
    ops, ak = [], np.eye(cutoff)
    for k in range(cutoff):
        ops.append(math.sqrt((1.0 - eta) ** k / math.factorial(k)) * eta_half_n[:, None] * ak)
        ak = a @ ak
    return ops


def _apply_mode_kraus(rho, dims, mode, kraus):
    left = math.prod(dims[:mode])
    dm = dims[mode]
    right = math.prod(dims[mode + 1 :])
    arr = rho.reshape(left, dm, right, left, dm, right)
    out = np.zeros_like(arr)
    for k in kraus:
        t = np.tensordot(k, arr, axes=([1], [1]))  # a,L,R,l,c,r
        t = np.tensordot(t, k.conj(), axes=([4], [1]))  # a,L,R,l,r,d
        out += t.transpose(1, 0, 2, 3, 5, 4)
    return out.reshape(rho.shape)


def kraus_loss(state, eta, modes=None):
    """The pure-loss channel as sum_k K_k rho K_k† on each listed mode."""
    modes = _check_modes(state.dims, range(state.n_modes) if modes is None else modes)
    rho = np.array(state.rho)
    for m in modes:
        rho = _apply_mode_kraus(rho, state.dims, m, kraus_ops(float(eta), state.dims[m]))
    return FockState(state.dims, hermitize(rho), validate=False)


def dense_moments(state):
    """(means, cm) from tr[R_i rho] and tr[{R_i, R_j} rho]/2 with the truncated
    quadrature matrices, which miss the top level's upward coupling."""
    qp = quadrature_ops(state.dims)
    rho = state.rho
    n2 = len(qp)
    means = np.array([np.sum(op.T * rho).real for op in qp])
    prods = [op @ rho for op in qp]
    cm = np.empty((n2, n2))
    for i in range(n2):
        for j in range(i, n2):
            sym = np.sum(qp[j].T * prods[i]).real  # tr[Qj Qi rho]
            ji = np.sum(qp[i].T * prods[j]).real
            cm[i, j] = cm[j, i] = 0.5 * (sym + ji) - means[i] * means[j]
    return means, cm


def dense_sampled_lossy_ecs(p, cutoff):
    """fig5's state builder: the lossy superposition at the full cutoff, then
    ``truncate_state`` at tolerance 1e-10."""
    g, eta = p["gamma"], p["eta"]
    if eta * g * g > 1e-8:
        state = ecs_loss_analytic(g, eta, cutoff or default_cutoff(g))
    else:
        state = apply_loss(make_state(StateSpec("ecs", {"gamma": g}, cutoff=cutoff)), eta)
    return truncate_state(state, tol=1e-10)
