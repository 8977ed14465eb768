"""Operators as finite sums of Gaussian Wigner functions in phase space.

An operator is held as ``Terms``: weights w (k,), real covariances
V (k, 2n, 2n) and complex means m (k, 2n), its Wigner function being
sum_i w_i G(x - m_i; V_i) with G the normalised Gaussian, in ``gaussian``'s
convention (quadratures (q1, p1, ...), vacuum covariance I/2).  A Gaussian
state is one real term; a coherent dyad |alpha><beta| is one term with a
complex mean.  Loss, partial trace and tensor product act term by term, and
tr(AB) = (2 pi)^n int W_A W_B is a Gaussian integral per pair of terms
(Bourassa et al., PRX Quantum 2, 040315 (2021)), so nothing is truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, check_eta
from .gaussian import GaussianSpec


@dataclass(frozen=True)
class Terms:
    """sum_i weights[i] G(x - means[i]; covs[i]); arrays read-only."""

    weights: np.ndarray
    covs: np.ndarray
    means: np.ndarray

    def __post_init__(self):
        for name, dtype in (("weights", complex), ("covs", float), ("means", complex)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        k, dim = self.means.shape
        if self.weights.shape != (k,) or self.covs.shape != (k, dim, dim) or dim % 2:
            raise BadSpec(f"inconsistent term shapes {self.weights.shape} / "
                          f"{self.covs.shape} / {self.means.shape}")


def coherent_dyad(alpha, beta):
    """|alpha><beta| for per-mode amplitudes: weight <beta|alpha>, covariance
    I/2 and mean (alpha + beta*, -i (alpha - beta*)) / sqrt(2) per mode, the
    coherent state's mean with alpha* continued to beta*."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    beta = np.atleast_1d(np.asarray(beta, dtype=complex))
    weight = np.exp(np.sum(beta.conj() * alpha - 0.5 * (abs(alpha) ** 2 + abs(beta) ** 2)))
    means = np.column_stack([alpha + beta.conj(), -1j * (alpha - beta.conj())]).ravel()
    return Terms([weight], [0.5 * np.eye(means.size)], [means / math.sqrt(2.0)])


def gaussian_state(spec):
    """The Gaussian state of a ``GaussianSpec``: one term of weight 1."""
    return Terms([1.0], [spec.cm], [spec.means])


def loss(terms, eta):
    """Pure loss of transmittance ``eta`` on every mode: V -> eta V + (1 - eta) I/2
    (written so that I/2 stays exactly I/2) and m -> sqrt(eta) m."""
    check_eta(eta)
    half = 0.5 * np.eye(terms.means.shape[1])
    return Terms(terms.weights, eta * (terms.covs - half) + half,
                 math.sqrt(eta) * terms.means)


def partial_trace(terms, keep):
    """The modes ``keep`` (in that order), the others integrated out."""
    idx = np.ravel([(2 * m, 2 * m + 1) for m in keep])
    return Terms(terms.weights, terms.covs[:, idx[:, None], idx], terms.means[:, idx])


def tensor(a, b):
    """A (x) B: every pair of terms, A's modes first."""
    ka, kb = a.weights.size, b.weights.size
    da, db = a.means.shape[1], b.means.shape[1]
    covs = np.zeros((ka, kb, da + db, da + db))
    covs[:, :, :da, :da] = a.covs[:, None]
    covs[:, :, da:, da:] = b.covs[None, :]
    means = np.concatenate([np.repeat(a.means, kb, axis=0), np.tile(b.means, (ka, 1))],
                           axis=1)
    return Terms(np.outer(a.weights, b.weights).ravel(),
                 covs.reshape(ka * kb, da + db, da + db), means)


def weighted_sum(pairs):
    """sum_j c_j A_j for (c_j, A_j) pairs on the same modes."""
    return Terms(np.concatenate([c * t.weights for c, t in pairs]),
                 np.concatenate([t.covs for _, t in pairs]),
                 np.concatenate([t.means for _, t in pairs]))


def overlap(a, b):
    """tr(AB) = sum_ij w_i w_j exp(-d^T S^-1 d / 2) / sqrt(det S), with
    S = V_i + V_j and d = m_i - m_j, over every pair of terms at once.  A pair
    of vacuum-covariance terms (S = I, every coherent dyad) needs no solve.
    Complex: real when A and B are Hermitian."""
    s = a.covs[:, None] + b.covs[None, :]
    d = a.means[:, None] - b.means[None, :]
    unit = (s == np.eye(s.shape[-1])).all(axis=(-2, -1))
    quad = np.einsum("...i,...i", d, d)
    root = np.ones(unit.shape)
    if not unit.all():
        rest = ~unit
        quad[rest] = np.einsum("...i,...i", d[rest],
                               np.linalg.solve(s[rest], d[rest][..., None])[..., 0])
        root[rest] = np.sqrt(np.linalg.det(s[rest]))
    pairs = np.outer(a.weights, b.weights) * np.exp(-0.5 * quad) / root
    return complex(pairs.sum())


def moments(terms):
    """First moments and symmetrised covariance matrix of a unit-trace
    Hermitian sum: sum_i w_i m_i and sum_i w_i (V_i + m_i m_i^T) - m m^T."""
    w = terms.weights
    means = (w @ terms.means).real
    second = np.einsum("k,kij->ij", w, terms.covs + terms.means[:, :, None]
                       * terms.means[:, None, :]).real
    return GaussianSpec(means, second - np.outer(means, means))
