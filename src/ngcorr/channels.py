"""Bosonic loss channels and the closed-form lossy superposition state."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import BadEta, DomainError, TruncationError
from .fock import (
    DEFAULT_TAIL_TOL,
    FockState,
    _check_modes,
    _tail_mass,
    support_dims,
)
from .states import coherent_amps, log_factorials


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
    if not 0.0 <= eta <= 1.0:
        raise BadEta(f"eta = {eta} outside [0, 1]")
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
    if not 0.0 <= eta <= 1.0:
        raise BadEta(f"eta = {eta} outside [0, 1]")
    modes = range(state.n_modes) if modes is None else modes
    modes = _check_modes(state.dims, modes)
    rho = state.rho
    for m in modes:
        rho = _apply_mode_loss(rho, state.dims, m, _loss_amplitudes(float(eta), state.dims[m]))
    return FockState(state.dims, rho, validate=False)


def cat_norms(nbar):
    """Squared norms (N+, N-) = 2 +- 2 exp(-2 nbar) of |x> +- |-x>, |x|^2 = nbar."""
    e = math.exp(-2.0 * nbar)
    return 2.0 + 2.0 * e, 2.0 - 2.0 * e


def ecs_weights(gamma, eta):
    """Mixture weights of the Bell-type and even/odd branches of a lossy ECS."""
    g = float(gamma)
    s = math.sqrt(2.0) * g
    gl = math.sqrt(max(0.0, 2.0 - 2.0 * eta)) * g
    gt = math.sqrt(2.0 * eta) * g
    plus_l, minus_l = cat_norms(gl * gl)
    plus_t, minus_t = cat_norms(gt * gt)
    denom = 4.0 * cat_norms(s * s)[1]
    w_bell = plus_l * minus_t / denom
    w_even = minus_l * plus_t / denom
    return w_bell, w_even


def ecs_loss_branches(gamma, eta, cutoff):
    """Normalized branch vectors (bell, even) of the lossy ECS in Fock basis."""
    g = float(gamma)
    ge = math.sqrt(eta) * g
    if ge == 0.0:
        plus = coherent_amps(0.0, cutoff)
        minus = np.zeros(cutoff, dtype=complex)
        minus[min(1, cutoff - 1)] = 1.0
    else:
        c = coherent_amps(ge, cutoff)
        cm = coherent_amps(-ge, cutoff)
        plus = c + cm
        minus = c - cm
        plus = plus / np.linalg.norm(plus)
        minus = minus / np.linalg.norm(minus)
    bell = (np.kron(plus, minus) + np.kron(minus, plus)) / math.sqrt(2.0)
    gt = math.sqrt(2.0 * eta) * g
    norm = 2.0 * math.sqrt(cat_norms(gt * gt)[0])
    ca, cb = (n / norm for n in cat_norms(ge * ge))
    even = ca * np.kron(plus, plus) + cb * np.kron(minus, minus)
    even_norm = np.linalg.norm(even)
    if even_norm > 0:
        even = even / even_norm
    return bell, even


def ecs_loss_analytic(gamma, eta, cutoff, support_tol=None):
    """Closed-form lossy ECS: rank-2 mixture of a Bell branch and an even branch.

    Raises ``TruncationError`` when the tail mass at ``cutoff`` reaches
    ``DEFAULT_TAIL_TOL``.  ``support_tol`` cuts the state exactly as
    ``truncate_state`` does at that tolerance, but forms only the kept block;
    None cuts nothing.
    """
    if not 0.0 <= eta <= 1.0:
        raise BadEta(f"eta = {eta} outside [0, 1]")
    if not float(gamma) > 0.0:
        raise DomainError("gamma must be > 0")
    w_bell, w_even = ecs_weights(gamma, eta)
    bell, even = ecs_loss_branches(gamma, eta, cutoff)
    pops = (w_bell * (bell * bell.conj()) + w_even * (even * even.conj())).real
    pops = pops.reshape(cutoff, cutoff)
    tail = _tail_mass(pops)
    if tail >= DEFAULT_TAIL_TOL:
        raise TruncationError(f"lossy-ECS tail mass {tail:.3e} >= {DEFAULT_TAIL_TOL}")
    dims = pops.shape if support_tol is None else support_dims(pops, support_tol)
    bell, even = (v.reshape(pops.shape)[: dims[0], : dims[1]].ravel() for v in (bell, even))
    # real branch vectors make the rank-2 sum exactly Hermitian
    rho = w_bell * np.outer(bell, bell.conj()) + w_even * np.outer(even, even.conj())
    if dims != pops.shape:
        rho = rho / np.trace(rho).real
    return FockState(dims, rho, validate=False)
