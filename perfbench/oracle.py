"""Closed-form oracles for the lossy entangled coherent state (ECS).

The state |gamma,gamma> - |-gamma,-gamma> under symmetric loss of
transmittance eta stays inside the span of the attenuated cat vectors
|+'>, |-'> of each mode, so it is exactly a two-qubit state.  This module
builds that 4x4 model from the coherent-state overlaps alone (the
derivation is in README.md) and evaluates on it the mutual informations,
Wootters' entanglement of formation, and the von Neumann mutual
information of the Gaussian state with the same moments.  It imports
nothing from ngcorr, so it can check ngcorr's output.

Basis order: |++>, |+->, |-+>, |-->.  Natural logarithms throughout.
"""

from __future__ import annotations

import math

import numpy as np


def lossy_ecs(gamma, eta):
    """Spectral decomposition (weights, columns of orthonormal vectors).

    The even branch p^2|++> + m^2|--> and the odd (Bell) branch
    pm(|+-> + |-+>) carry the weights (1-D)(1+E^2)/(2Z) and
    (1+D)(1-E^2)/(2Z), with E = exp(-2 eta gamma^2),
    D = exp(-4 (1-eta) gamma^2) and Z = 1 - exp(-4 gamma^2).
    Branches of zero weight are dropped.
    """
    g2 = float(gamma) ** 2
    eta = float(eta)
    if not g2 > 0.0 or not 0.0 <= eta <= 1.0:
        raise ValueError(f"need gamma != 0 and eta in [0, 1], got {gamma}, {eta}")
    z = -math.expm1(-4.0 * g2)
    one_minus_d = -math.expm1(-4.0 * (1.0 - eta) * g2)
    one_plus_d = 2.0 - one_minus_d
    p2 = 0.5 * (1.0 + math.exp(-2.0 * eta * g2))
    m2 = -0.5 * math.expm1(-2.0 * eta * g2)
    one_minus_e2 = -math.expm1(-4.0 * eta * g2)
    one_plus_e2 = 2.0 - one_minus_e2
    weights = []
    vectors = []
    w_even = one_minus_d * one_plus_e2 / (2.0 * z)
    if w_even > 0.0:
        even = np.array([p2, 0.0, 0.0, m2])
        weights.append(w_even)
        vectors.append(even / np.linalg.norm(even))
    w_odd = one_plus_d * one_minus_e2 / (2.0 * z)
    if w_odd > 0.0:
        weights.append(w_odd)
        vectors.append(np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0))
    return np.array(weights), np.column_stack(vectors)


def density(gamma, eta):
    """The 4x4 density matrix of the lossy ECS."""
    w, phi = lossy_ecs(gamma, eta)
    return (phi * w) @ phi.T


def marginals(rho):
    r = rho.reshape(2, 2, 2, 2)
    return np.einsum("ijkj->ik", r), np.einsum("ijil->jl", r)


def _plogp_sum(p):
    p = p[p > 0.0]
    return float(np.sum(p * np.log(p)))


def _spectrum_sum(p, alpha):
    p = p[p > 0.0]
    return float(np.sum(p**alpha))


def _psd_power(mat, s):
    """Power of a PSD matrix on its support."""
    w, v = np.linalg.eigh(mat)
    on = w > 0.0
    return (v[:, on] * w[on] ** s) @ v[:, on].T


def mutual_information(kind, gamma, eta, alpha=None):
    """vn, renyi, sandwiched, hs, tr or bures of the 4x4 model, in nats."""
    w, phi = lossy_ecs(gamma, eta)
    rho = (phi * w) @ phi.T
    ra, rb = marginals(rho)
    sigma = np.kron(ra, rb)
    pa, pb = np.linalg.eigvalsh(ra), np.linalg.eigvalsh(rb)
    if kind == "vn" or (kind == "renyi" and alpha == 1.0):
        return _plogp_sum(w) - _plogp_sum(pa) - _plogp_sum(pb)
    if kind == "renyi":
        return (
            math.log(_spectrum_sum(pa, alpha))
            + math.log(_spectrum_sum(pb, alpha))
            - math.log(_spectrum_sum(w, alpha))
        ) / (1.0 - alpha)
    if kind == "sandwiched":
        # the nonzero spectrum of sigma^b rho sigma^b, b = (1-alpha)/(2 alpha),
        # is that of the small Gram matrix sqrt(w) phi^T sigma^(2b) phi sqrt(w)
        b = (1.0 - alpha) / (2.0 * alpha)
        gram = np.sqrt(w)[:, None] * (phi.T @ _psd_power(sigma, 2.0 * b) @ phi)
        gram = gram * np.sqrt(w)[None, :]
        lam = np.linalg.eigvalsh(gram)
        return math.log(_spectrum_sum(lam, alpha)) / (alpha - 1.0)
    if kind == "hs":
        return float(np.sqrt(np.sum((rho - sigma) ** 2)))
    if kind == "tr":
        return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))
    if kind == "bures":
        # sqrt(F) = tr sqrt(sqrt(rho) sigma sqrt(rho)), whose nonzero
        # spectrum is that of sqrt(w) phi^T sigma phi sqrt(w)
        gram = np.sqrt(w)[:, None] * (phi.T @ sigma @ phi) * np.sqrt(w)[None, :]
        root_f = float(np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))))
        return math.sqrt(max(0.0, 2.0 * (1.0 - min(1.0, root_f))))
    raise ValueError(f"unknown kind {kind!r}")


def measure_id(mid, gamma, eta):
    """Oracle value of an ngcorr mutual-information id such as 'renyi:0.5'."""
    kind, _, alpha = mid.partition(":")
    return mutual_information(kind, gamma, eta, float(alpha) if alpha else None)


def concurrence(gamma, eta):
    """Concurrence of the X-shaped model, 2 max(0, |v| - sqrt(bc), |u| - sqrt(ad))."""
    r = density(gamma, eta)
    return max(
        0.0,
        2.0 * (abs(r[0, 3]) - math.sqrt(r[1, 1] * r[2, 2])),
        2.0 * (abs(r[1, 2]) - math.sqrt(r[0, 0] * r[3, 3])),
    )


def wootters_concurrence(rho):
    """Generic two-qubit concurrence from the spin-flipped spectrum."""
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    flip = np.kron(sy, sy)
    root = _psd_power(rho.astype(complex), 0.5)
    lam = np.linalg.eigvalsh(root @ flip @ rho.conj() @ flip @ root)
    s = np.sort(np.sqrt(np.clip(lam, 0.0, None)))
    return max(0.0, s[-1] - s[0] - s[1] - s[2])


def entanglement_of_formation(gamma, eta):
    """Wootters' entanglement of formation in nats."""
    c = concurrence(gamma, eta)
    p = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c)))
    q = 1.0 - p
    return -sum(x * math.log(x) for x in (p, q) if x > 0.0)


def _thermal_entropy(nu):
    out = (nu + 0.5) * math.log(nu + 0.5)
    if nu > 0.5:
        out -= (nu - 0.5) * math.log(nu - 0.5)
    return out


def gaussian_vn_mi(gamma, eta):
    """Von Neumann mutual information of the Gaussian state with the ECS moments.

    The moments <a_i a_j> = eta gamma^2 and <a_i^dag a_j> =
    eta gamma^2 coth(2 gamma^2) give the quadrature correlations
    x_q = n + A and x_p = n - A.  A 50:50 beam splitter maps the covariance
    matrix to a squeezed thermal mode with variances (2x_q + 1/2,
    2x_p + 1/2) times vacuum, which fixes the symplectic eigenvalues.
    """
    g2 = float(gamma) ** 2
    a = eta * g2
    n = eta * g2 / math.tanh(2.0 * g2)
    xq, xp = n + a, n - a
    nu_local = math.sqrt((xq + 0.5) * (xp + 0.5))
    nu_global = math.sqrt((2.0 * xq + 0.5) * (2.0 * xp + 0.5))
    return 2.0 * _thermal_entropy(nu_local) - _thermal_entropy(nu_global)


def delta_vn(gamma, eta):
    return mutual_information("vn", gamma, eta) - gaussian_vn_mi(gamma, eta)
