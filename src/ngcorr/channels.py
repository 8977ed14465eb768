"""Bosonic loss channels and the closed-form lossy superposition state."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import TruncationError, check_eta
from .fock import (
    DEFAULT_TAIL_TOL,
    FockState,
    _check_modes,
    _tail_mass,
    support_dims,
)
from .states import cat_vectors, log_factorials
from .xstate import ecs_to_xstate


def _loss_amplitudes(eta, dm):
    """g[i, m] = <i|K_(m-i)|m> = sqrt(C(m, i) eta^i (1-eta)^(m-i)) for m >= i,
    else 0; the binomials in log space, exact at eta = 0 and 1."""
    lg = log_factorials(dm)
    i, m = np.indices((dm, dm))
    k = np.maximum(m - i, 0)
    binom = np.exp(0.5 * (lg[m] - lg[i] - lg[k]))
    return np.triu(binom * math.sqrt(eta) ** i * math.sqrt(1.0 - eta) ** k)


@lru_cache(maxsize=8)
def loss_kraus(eta, cutoff):
    """Single-mode loss Kraus operators K_k = sqrt((1-eta)^k / k!) eta^(n/2) a^k,
    the k-th superdiagonal of ``_loss_amplitudes``; all-zero ones are left out.
    """
    check_eta(eta)
    g = _loss_amplitudes(eta, cutoff)
    ops = tuple(np.diag(np.diagonal(g, k), k).astype(complex) for k in range(cutoff)
                if np.diagonal(g, k).any())
    for op in ops:
        op.setflags(write=False)
    return ops


def _apply_mode_loss(rho, dims, mode, g):
    """rho'_ij = sum_k g[i, i+k] g[j, j+k] rho_(i+k)(j+k) on one mode
    (Chuang, Leung & Yamamoto, PRA 56, 1114 (1997)): each diagonal i - j
    maps through one real upper-triangular matrix, one GEMM per diagonal."""
    dm = dims[mode]
    shape = (math.prod(dims[:mode]), dm, math.prod(dims[mode + 1 :]))
    axes = (1, 4, 0, 2, 3, 5)
    arr = np.ascontiguousarray(rho.reshape(shape + shape).transpose(axes))
    arr = arr.reshape(dm * dm, -1)
    out = np.zeros_like(arr)
    for delta in range(1 - dm, dm):
        i = np.arange(max(delta, 0), dm + min(delta, 0))
        rows = slice(i[0] * (dm + 1) - delta, None, dm + 1)  # i dm + j, j = i - delta
        trans = g[np.ix_(i, i)] * g[np.ix_(i - delta, i - delta)]
        out[rows][: i.size].view(float)[...] = trans @ arr[rows][: i.size].view(float)
    out = out.reshape(dm, dm, *shape[::2], *shape[::2]).transpose(np.argsort(axes))
    return out.reshape(rho.shape)


def apply_loss(state, eta, modes=None):
    """Pure-loss channel (beam-splitter mixing with vacuum) on the given modes."""
    check_eta(eta)
    modes = range(state.n_modes) if modes is None else modes
    modes = _check_modes(state.dims, modes)
    rho = state.rho
    for m in modes:
        rho = _apply_mode_loss(rho, state.dims, m, _loss_amplitudes(float(eta), state.dims[m]))
    return FockState(state.dims, rho, validate=False)


def ecs_loss_analytic(gamma, eta, cutoff, support_tol=None):
    """Closed-form lossy ECS: ``xstate.ecs_to_xstate``'s X state in each mode's
    attenuated cat basis |+-'> ~ |sqrt(eta) gamma> +- |-sqrt(eta) gamma> (van
    Enk & Hirota, PRA 64, 022313 (2001)).  It has rank 2 (u = b = c, v = sqrt(ad)):
    rho = |b><b| + |e><e|, the Bell-type branch |b> = sqrt(b) (|+-'> + |-+'>)
    and the even branch |e> = sqrt(a) |++'> + sqrt(d) |--'>.

    Raises ``TruncationError`` when the tail mass at ``cutoff`` reaches
    ``DEFAULT_TAIL_TOL``.  ``support_tol`` cuts the state exactly as
    ``truncate_state`` does at that tolerance, but forms only the kept block;
    None cuts nothing.
    """
    x = ecs_to_xstate(gamma, eta)
    # real vectors for a real amplitude
    plus, minus = (v.real for v in cat_vectors(math.sqrt(eta) * float(gamma), cutoff))
    bell = math.sqrt(x.b) * (np.outer(plus, minus) + np.outer(minus, plus))
    even = math.sqrt(x.a) * np.outer(plus, plus) + math.sqrt(x.d) * np.outer(minus, minus)
    pops = bell * bell + even * even
    tail = _tail_mass(pops)
    if tail >= DEFAULT_TAIL_TOL:
        raise TruncationError(f"lossy-ECS tail mass {tail:.3e} >= {DEFAULT_TAIL_TOL}")
    dims = pops.shape if support_tol is None else support_dims(pops, support_tol)
    # entries are products of branch amplitudes: exactly symmetric, cut-free
    bell, even = (v[: dims[0], : dims[1]].ravel() for v in (bell, even))
    rho = (np.outer(bell, bell) + np.outer(even, even)).astype(complex)
    if dims != pops.shape:
        rho = rho / np.trace(rho).real
    return FockState(dims, rho, validate=False)
