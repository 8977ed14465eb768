"""Correlation measures and non-Gaussianity-of-correlation measures.

Two families of scalars:

* mutual-information-like measures of a two-mode state (entropic, geometric,
  and fidelity-based kinds), plus their reference-subtracted deltas;
* measures of non-Gaussian correlation built from a pair of averaged states,
  mixing the target with its Gaussian reference.

Every measure reads the operands it shares with the others through the
state's memo (``FockState.derive``): the marginals, their product, the
moments, the Gaussian reference and the averaged pair are built once per
state, and the reference keeps its own marginals and their product the
same way.  The public builders (``marginal_product``, ``reference_state``,
``averaged_states``) are plain functions that build afresh on each call.

A delta takes its reference value from the covariance-matrix closed form
(``gaussian_mi``) for every kind in ``CLOSED_FORM_KINDS``, and from the
synthesized Fock reference only for 'tr', which has none.  The Bures kind
is one function of sqrt F (``gaussian.bures_metric``) on every route.

``ng_bounds`` gives ``lb1`` and ``lb2`` of a state held as a sum of Gaussian
terms (``phase.Terms``) exactly, with no cutoff.  It is the figures' route
for the lossy ECS; ``ng_correlation`` is the only route for a ``FockState``
and the tests' oracle for ``ng_bounds``.  Both routes take the two bounds
from the same three traces of the averaged pair, through one formula
(``_lower_bounds``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import phase
from .errors import BadSpec
from .fock import (
    FockState,
    distance,
    fidelity,
    overlap,
    paired,
    partial_trace,
    sandwich_singular_values,
    support_overlaps,
    tensor,
)
from .gaussian import (CLOSED_FORM_KINDS, bures_metric, gaussian_mi, mi_kind,
                       moments_from_fock, reference_gaussian_fock)

NG_KINDS = ("tr", "fid", "lb1", "lb2")

#: Mass of rho outside supp(sigma) above which the alpha >= 1 sandwiched
#: divergence is reported as infinite.  Full-rank states with geometrically
#: decaying spectra dip below sigma's numerical rank at large photon number,
#: carrying target mass there (3.3e-7 for a cutoff-30 two-mode squeezed
#: vacuum at r = 0.6); the tolerance sits above that but far below any
#: structural support mismatch.
SUPPORT_LEAK_TOL = 1e-6


def status_of(value):
    """Status of a computed value: 'infinity' for a signed infinity, else 'ok'."""
    return "infinity" if math.isinf(value) else "ok"


@dataclass(frozen=True)
class MeasureResult:
    """Scalar measure value with the truncation context it was computed at."""

    value: float
    cutoff: tuple
    tail_mass: float

    @classmethod
    def on(cls, state, value):
        """A value derived from ``state``, reported at its cutoff and tail mass."""
        return cls(float(value), state.dims, state.tail_mass)


def _support_eigs(state):
    """The state's eigenvalues above its numerical rank (``rank_floor``)."""
    spec = state.spectrum()
    w = spec.eigenvalues()
    return w[w > spec.rank_floor()]


def _vn_entropy(state):
    w = _support_eigs(state)
    return float(-np.sum(w * np.log(w)))


def _renyi_entropy(state, alpha):
    if alpha == 1.0:
        return _vn_entropy(state)
    w = _support_eigs(state)
    return float(math.log(np.sum(w**alpha)) / (1.0 - alpha))


def _marginals(state):
    if state.n_modes != 2:
        raise BadSpec("mutual information defined for two-mode states")
    return partial_trace(state, [0]), partial_trace(state, [1])


def marginal_product(state):
    """rho_A x rho_B of a two-mode state, whose eigensystem is built from
    the marginals' (``fock.kron_spectrum``)."""
    return tensor(*state.derive(_marginals))


def sandwiched_relative_entropy(rho, sigma, alpha):
    """Order-alpha sandwiched relative entropy of rho with respect to sigma.

    Infinite when alpha >= 1 and rho leaks outside the support of sigma, the
    span of its eigenvectors above its numerical rank (``Spectrum.rank_floor``).
    alpha = 1 gives the ordinary relative entropy.  rho enters through its
    eigenpairs above its own numerical rank, as in the entropies, and every
    branch reads the one overlap product per sector (``support_overlaps``).
    """
    _, alpha = mi_kind("sandwiched", alpha)
    r, s = paired(rho.spectrum(), sigma.spectrum())
    floor = s.rank_floor()
    # sigma keeps its whole positive spectrum: at alpha > 1 a support floor
    # would drop real weight (a structural leak is infinite below); at
    # alpha >= 1 the support check reads every eigenvector of sigma
    overlaps = support_overlaps(r, s, 0.0 if alpha < 1.0 else -math.inf)
    if alpha >= 1.0:
        # populations sum_k p_k |<v_j|u_k>|^2 of rho in the eigenbasis of sigma
        pops = [(np.abs(m) ** 2) @ p for p, _, m in overlaps]
        leak = sum(float(np.sum(q[w <= floor])) for q, w in zip(pops, s.values))
        if leak > SUPPORT_LEAK_TOL:
            return math.inf
    if alpha == 1.0:
        # tr[rho log sigma] = sum_j <v_j|rho|v_j> log s_j
        tr_rho_log_sigma = 0.0
        for q, w in zip(pops, s.values):
            on = w > floor
            tr_rho_log_sigma += float(np.sum(q[on] * np.log(w[on])))
        return -_vn_entropy(rho) - tr_rho_log_sigma
    w = sandwich_singular_values(overlaps, (1.0 - alpha) / (2.0 * alpha)) ** 2
    w = w[w > 0.0]
    return float(math.log(np.sum(w**alpha)) / (alpha - 1.0))


def mutual_information(kind, state, alpha=None):
    """Correlation content of a two-mode state against its marginal product.

    kinds: 'vn' and 'renyi' (entropy combinations), 'sandwiched'
    (relative-entropy type, 'vn' at order 1), 'hs' and 'tr' (distance type),
    'bures' (fidelity type, the metric sqrt(2(1 - sqrt(F)))); see
    ``gaussian.mi_kind``.
    """
    kind, alpha = mi_kind(kind, alpha)
    if kind == "renyi":
        ra, rb = state.derive(_marginals)
        val = (
            _renyi_entropy(ra, alpha)
            + _renyi_entropy(rb, alpha)
            - _renyi_entropy(state, alpha)
        )
        return MeasureResult.on(state, val)
    prod = state.derive(marginal_product)
    if kind == "sandwiched":
        return MeasureResult.on(state, sandwiched_relative_entropy(state, prod, alpha))
    if kind == "hs":
        return MeasureResult.on(state, distance("hilbert_schmidt", state, prod))
    if kind == "tr":
        return MeasureResult.on(state, distance("trace", state, prod))
    # bures
    root_f = math.sqrt(min(1.0, fidelity(state, prod)))
    return MeasureResult.on(state, bures_metric(root_f))


def reference_state(state):
    """Gaussian state with the same first and second moments, on the same dims."""
    return reference_gaussian_fock(state.derive(moments_from_fock), state.dims)


def delta_ng(kind, state, alpha=None):
    """Measure of the target minus the same measure of its Gaussian reference.

    The reference value of a kind in ``CLOSED_FORM_KINDS`` comes from the
    covariance-matrix closed form ``gaussian_mi`` (truncation-free); that of
    'tr', which has none, from Fock numerics on the synthesized reference.
    """
    target = mutual_information(kind, state, alpha)
    if math.isinf(target.value):  # the delta, where inf - inf would be nan
        return target
    if kind in CLOSED_FORM_KINDS:
        ref_val = gaussian_mi(kind, state.derive(moments_from_fock), alpha)
    else:
        ref_val = mutual_information(kind, state.derive(reference_state)).value
    return MeasureResult.on(state, target.value - ref_val)


def averaged_states(state):
    """Half-mixtures of the target with the swapped reference marginals.

    rho_tilde = (rho_AB + sigma_A x sigma_B)/2 and
    sigma_tilde = (sigma_AB + rho_A x rho_B)/2, where sigma is the Gaussian
    reference of rho.  Their difference keeps the full target-vs-reference
    information while both operands stay valid states.  Each product is the
    one kept with its state (``marginal_product``).
    """
    sigma = state.derive(reference_state)
    rho_tilde = 0.5 * (state.rho + sigma.derive(marginal_product).rho)
    sigma_tilde = 0.5 * (sigma.rho + state.derive(marginal_product).rho)
    return (FockState(state.dims, rho_tilde, validate=False),
            FockState(state.dims, sigma_tilde, validate=False))


def ng_correlation(kind, state):
    """Non-Gaussian-correlation measure from the averaged-state pair.

    kinds: 'tr' (trace distance), 'fid' (order-1/2 relative entropy from the
    Uhlmann fidelity), 'lb1' (superfidelity lower bound), 'lb2'
    (Hilbert-Schmidt lower bound, both from ``_lower_bounds``); fid >= lb1 >= lb2.
    """
    if kind not in NG_KINDS:
        raise ValueError(f"unknown ng_correlation kind {kind!r}")
    rt, st = state.derive(averaged_states)
    if kind == "tr":
        return MeasureResult.on(state, distance("trace", rt, st))
    if kind == "fid":
        f = min(1.0, fidelity(rt, st))
        return MeasureResult.on(state, _neg_log(f))
    lb1, lb2 = _lower_bounds(overlap(rt, rt), overlap(st, st), overlap(rt, st))
    return MeasureResult.on(state, lb1 if kind == "lb1" else lb2)


def _lower_bounds(rr, ss, rs):
    """(lb1, lb2) = -ln of G = rs + sqrt(1 - rr) sqrt(1 - ss), the superfidelity
    (Miszczak et al., Quantum Inf. Comput. 9, 103 (2009)), and of 1 - D_HS^2 / 2
    = 1 - (rr + ss - 2 rs) / 2, from rr = tr rho~^2, ss = tr sigma~^2 and
    rs = tr rho~ sigma~.  F <= G <= 1 - D_HS^2 / 2 (AM-GM): fid >= lb1 >= lb2."""
    g = min(1.0, rs + math.sqrt(max(0.0, 1.0 - rr)) * math.sqrt(max(0.0, 1.0 - ss)))
    return _neg_log(g), _neg_log(1.0 - 0.5 * max(0.0, rr + ss - 2.0 * rs))


def _neg_log(x):
    """-ln x of a fidelity-like x <= 1, floored at 1e-300; + 0.0 so that
    -ln 1 is 0, not -0."""
    return -math.log(max(x, 1e-300)) + 0.0


def ng_bounds(rho):
    """(lb1, lb2) of a unit-trace two-mode ``phase.Terms`` state, as
    ``ng_correlation`` gives them, from the traces of the averaged pair's term
    sums (5 and 17 terms for a 4-term state).  sigma is the Gaussian state of
    the sum's own moments."""
    sigma = phase.gaussian_state(phase.moments(rho))

    def product(t):
        return phase.tensor(phase.partial_trace(t, [0]), phase.partial_trace(t, [1]))

    rt = phase.weighted_sum([(0.5, rho), (0.5, product(sigma))])
    st = phase.weighted_sum([(0.5, sigma), (0.5, product(rho))])
    return _lower_bounds(*(phase.overlap(a, b).real
                           for a, b in ((rt, rt), (st, st), (rt, st))))
