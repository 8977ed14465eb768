"""Seeded random generators for the test suites.

All samplers take a numpy Generator so callers control reproducibility.
"""

from __future__ import annotations

import numpy as np

from ngcorr.errors import UnphysicalCM
from ngcorr.fock import FockState
from ngcorr.gaussian import GaussianSpec, StandardFormCM
from ngcorr.xstate import XStateParams
from oracles import standard_form_spec


def random_xstate(rng, complex_offdiag=True):
    """Random X-form two-qubit state with strictly positive-definite blocks.

    Diagonal from a flat Dirichlet; off-diagonal magnitudes uniform inside
    the positivity bounds |v| <= sqrt(ad), |u| <= sqrt(bc).
    """
    a, b, c, d = rng.dirichlet(np.ones(4))
    rv = rng.uniform(0.0, 1.0) * np.sqrt(a * d)
    ru = rng.uniform(0.0, 1.0) * np.sqrt(b * c)
    if complex_offdiag:
        v = rv * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        u = ru * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    else:
        v, u = rv, ru
    return XStateParams(a=a, b=b, c=c, d=d, u=u, v=v)


def random_standard_form(rng, max_local=3.0):
    """Random physical two-mode covariance matrix in standard form.

    Rejection sampling: local symplectic values a, b >= 1/2, correlations
    (c, d) proposed inside the box |c|, |d| <= sqrt(ab) and accepted when
    the assembled matrix satisfies the uncertainty relation.
    """
    while True:
        a = rng.uniform(0.5, max_local)
        b = rng.uniform(0.5, max_local)
        bound = np.sqrt(a * b)
        c = rng.uniform(0.0, bound)
        d = rng.uniform(-bound, bound)
        if abs(d) > c:
            continue
        try:
            sf = StandardFormCM(a=a, b=b, c=c, d=d)
            standard_form_spec(sf)
        except UnphysicalCM:
            continue
        return sf


def random_density_matrix(rng, dim, rank=None):
    """Ginibre-induced random density matrix of the given dimension."""
    rank = dim if rank is None else int(rank)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def random_two_mode_state(rng, levels=4, cutoff=12, rank=None):
    """Random two-mode Fock state supported on the lowest ``levels`` levels.

    The Ginibre block lives on levels 0..levels-1 of each mode and is
    embedded at a larger cutoff, so the truncation tail is exactly zero and
    Gaussian-reference synthesis is well conditioned.
    """
    small = random_density_matrix(rng, levels * levels, rank=rank)
    small = small.reshape(levels, levels, levels, levels)
    rho = np.zeros((cutoff, cutoff, cutoff, cutoff), dtype=complex)
    rho[:levels, :levels, :levels, :levels] = small
    d = cutoff * cutoff
    return FockState((cutoff, cutoff), rho.reshape(d, d), validate=False)


def random_gaussian_spec(rng, max_local=2.0):
    """Random physical two-mode Gaussian spec: rotated standard form."""
    sf = random_standard_form(rng, max_local=max_local)
    spec = standard_form_spec(sf)
    # conjugate by independent local rotations to leave the standard form
    th1, th2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    r1 = np.array([[np.cos(th1), np.sin(th1)], [-np.sin(th1), np.cos(th1)]])
    r2 = np.array([[np.cos(th2), np.sin(th2)], [-np.sin(th2), np.cos(th2)]])
    s = np.block(
        [[r1, np.zeros((2, 2))], [np.zeros((2, 2)), r2]]
    )
    return GaussianSpec(means=spec.means, cm=s @ spec.cm @ s.T)
