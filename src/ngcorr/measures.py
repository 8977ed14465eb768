"""Correlation measures and non-Gaussianity-of-correlation measures.

Two families of scalars:

* mutual-information-like measures of a two-mode state (entropic, geometric,
  and fidelity-based kinds), plus their reference-subtracted deltas;
* measures of non-Gaussian correlation built from a pair of averaged states,
  mixing the target with its Gaussian reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, DomainError
from .fock import (
    EIG_SUPPORT_FLOOR,
    FockState,
    distance,
    fidelity,
    partial_trace,
    spectra,
)
from .gaussian import gaussian_mi, moments_from_fock, reference_gaussian_fock

MI_KINDS = ("vn", "renyi", "sandwiched", "hs", "tr", "bures")
NG_KINDS = ("tr", "fid", "lb1", "lb2")
#: The kinds that take an order alpha.
ORDERED_KINDS = ("renyi", "sandwiched")

#: Mass of rho outside supp(sigma) above which the alpha > 1 sandwiched
#: divergence is reported as infinite.  Full-rank states with geometrically
#: decaying spectra dip below the numerical support floor at large photon
#: number, carrying target mass of order 1e-8 there; the tolerance sits well
#: above that but far below any structural support mismatch.
SUPPORT_LEAK_TOL = 1e-6


@dataclass(frozen=True)
class MeasureResult:
    """Scalar measure value with the truncation context it was computed at."""

    value: float
    kind: str
    alpha: float | None
    cutoff: tuple
    tail_mass: float
    status: str = "ok"

    @property
    def finite(self):
        return self.status == "ok"


def _result(value, kind, alpha, state, status="ok"):
    return MeasureResult(
        value=float(value),
        kind=kind,
        alpha=None if alpha is None else float(alpha),
        cutoff=state.dims,
        tail_mass=state.tail_mass,
        status=status,
    )


def _support_eigs(state):
    (spec,) = spectra(state.dims, state.rho, vectors=False)
    w = spec.eigenvalues()
    return w[w > EIG_SUPPORT_FLOOR]


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


def _marginal_product(state):
    ra, rb = _marginals(state)
    return FockState(state.dims, np.kron(ra.rho, rb.rho), validate=False)


def sandwiched_relative_entropy(rho, sigma, alpha):
    """Order-alpha sandwiched relative entropy of rho with respect to sigma.

    Returns (value, status); status is 'infinity' when alpha > 1 and rho
    leaks outside the support of sigma.  alpha = 1 gives the ordinary
    relative entropy.
    """
    alpha = float(alpha)
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    # each operand is decomposed once; both share the sectors
    r, s = spectra(rho.dims, rho.rho, sigma.rho)
    if alpha >= 1.0:
        # populations of rho in the eigenbasis of sigma
        pops = [
            np.real(np.sum(v.conj() * (blk @ v), axis=0))
            for blk, v in zip(r.blocks, s.vectors)
        ]
        leak = sum(
            float(np.sum(q[w <= EIG_SUPPORT_FLOOR])) for q, w in zip(pops, s.values)
        )
        if leak > SUPPORT_LEAK_TOL:
            return math.inf, "infinity"
    if alpha == 1.0:
        wr = r.eigenvalues()
        wr = wr[wr > EIG_SUPPORT_FLOOR]
        # tr[rho log sigma] = sum_j <v_j|rho|v_j> log s_j
        tr_rho_log_sigma = 0.0
        for q, w in zip(pops, s.values):
            on = w > EIG_SUPPORT_FLOOR
            tr_rho_log_sigma += float(np.sum(q[on] * np.log(w[on])))
        return float(np.sum(wr * np.log(wr))) - tr_rho_log_sigma, "ok"
    b = (1.0 - alpha) / (2.0 * alpha)
    # The kernel sigma^b rho sigma^b shares its nonzero spectrum with
    # A^dag A for A = diag(s^b) V^dag U diag(sqrt(p)), built entrywise from
    # the separate eigensystems rho = U diag(p) U^dag, sigma = V diag(s) V^dag.
    # Unlike an eigensolve of the assembled kernel, the singular values of A
    # resolve the geometric tail of the spectrum to absolute accuracy
    # ||A|| eps, which orders alpha < 1 need (tiny eigenvalues still carry
    # w**alpha weight there).  Eigensolver noise is removed per factor at the
    # standard numerical-rank threshold.  A is block-diagonal in the sectors.
    floor_p = r.rank_floor()
    w = []
    for pw, pu, sw, su in zip(r.values, r.vectors, s.values, s.vectors):
        keep_p = pw > floor_p
        # sigma keeps its whole positive spectrum: for alpha > 1 the negative
        # power amplifies genuinely tiny eigenvalues whose contributions
        # decay slowly, and a support floor would discard real weight (the
        # structural support-leak case was already diverted to infinity)
        keep_s = sw > 0.0
        a_mat = (sw[keep_s, None] ** b) * (su[:, keep_s].conj().T @ pu[:, keep_p])
        a_mat = a_mat * np.sqrt(pw[keep_p])[None, :]
        if a_mat.size:
            w.append(np.linalg.svd(a_mat, compute_uv=False) ** 2)
    w = np.concatenate(w)
    w = w[w > 0.0]
    return float(math.log(np.sum(w**alpha)) / (alpha - 1.0)), "ok"


def mutual_information(kind, state, alpha=None):
    """Correlation content of a two-mode state against its marginal product.

    kinds: 'vn' and 'renyi' (entropy combinations), 'sandwiched'
    (relative-entropy type), 'hs' and 'tr' (distance type), 'bures'
    (fidelity type, the metric sqrt(2(1 - sqrt(F)))).
    """
    if kind not in MI_KINDS:
        raise ValueError(f"unknown mutual_information kind {kind!r}")
    if kind == "vn":
        kind, alpha = "renyi", 1.0
    if kind in ORDERED_KINDS:
        if alpha is None:
            raise DomainError("entropic kinds require alpha")
        alpha = float(alpha)
        if alpha <= 0:
            raise DomainError("alpha must be positive")
    if kind == "renyi":
        ra, rb = _marginals(state)
        val = (
            _renyi_entropy(ra, alpha)
            + _renyi_entropy(rb, alpha)
            - _renyi_entropy(state, alpha)
        )
        out_kind = "vn" if alpha == 1.0 else "renyi"
        return _result(val, out_kind, alpha, state)
    if kind == "sandwiched":
        val, status = sandwiched_relative_entropy(state, _marginal_product(state), alpha)
        return _result(val, kind, alpha, state, status=status)
    prod = _marginal_product(state)
    if kind == "hs":
        return _result(distance("hilbert_schmidt", state, prod), kind, None, state)
    if kind == "tr":
        return _result(distance("trace", state, prod), kind, None, state)
    # bures
    f = min(1.0, fidelity("uhlmann", state, prod))
    return _result(math.sqrt(max(0.0, 2.0 * (1.0 - math.sqrt(f)))), kind, None, state)


def reference_state(state, moments=None):
    """Gaussian state with the same first and second moments, on the same dims.

    ``moments`` may pass in the state's already extracted moments.
    """
    spec = moments_from_fock(state) if moments is None else moments
    return reference_gaussian_fock(spec, state.dims)


def delta_ng(kind, state, alpha=None, reference=None, moments=None):
    """Measure of the target minus the same measure of its Gaussian reference.

    Entropic and Hilbert-Schmidt kinds evaluate the reference through the
    covariance-matrix closed forms (truncation-free); 'tr' and 'bures' fall
    back to Fock numerics on the synthesized reference.  The reference, or
    for the closed forms the state's moments, may be passed in to amortize
    their construction across kinds.
    """
    target = mutual_information(kind, state, alpha)
    if not target.finite:
        return target
    if kind in ("tr", "bures"):
        ref = reference_state(state) if reference is None else reference
        ref_val = mutual_information(kind, ref).value
    else:
        spec = moments_from_fock(state) if moments is None else moments
        if kind == "vn":
            ref_val = gaussian_mi("renyi", spec, 1.0)
        elif kind == "hs":
            ref_val = gaussian_mi("hilbert_schmidt", spec)
        else:
            ref_val = gaussian_mi(kind, spec, float(alpha))
    return _result(target.value - ref_val, f"delta_{target.kind}", alpha, state)


def averaged_states(state, reference=None):
    """Half-mixtures of the target with the swapped reference marginals.

    rho_tilde = (rho_AB + sigma_A x sigma_B)/2 and
    sigma_tilde = (sigma_AB + rho_A x rho_B)/2, where sigma is the Gaussian
    reference of rho.  Their difference keeps the full target-vs-reference
    information while both operands stay valid states.
    """
    sigma = reference_state(state) if reference is None else reference
    sa, sb = _marginals(sigma)
    ra, rb = _marginals(state)
    rho_tilde = FockState(
        state.dims, 0.5 * (state.rho + np.kron(sa.rho, sb.rho)), validate=False
    )
    sigma_tilde = FockState(
        state.dims, 0.5 * (sigma.rho + np.kron(ra.rho, rb.rho)), validate=False
    )
    return rho_tilde, sigma_tilde


def ng_correlation(kind, state, reference=None, pair=None):
    """Non-Gaussian-correlation measure from the averaged-state pair.

    kinds: 'tr' (trace distance), 'fid' (order-1/2 relative entropy from the
    Uhlmann fidelity), 'lb1' (superfidelity lower bound), 'lb2'
    (Hilbert-Schmidt lower bound); fid >= lb1 >= lb2.  The reference, or
    the ``averaged_states`` pair built from it, may be passed in.
    """
    if kind not in NG_KINDS:
        raise ValueError(f"unknown ng_correlation kind {kind!r}")
    rt, st = averaged_states(state, reference=reference) if pair is None else pair
    if kind == "tr":
        return _result(distance("trace", rt, st), "ng_tr", None, state)
    if kind == "fid":
        f = min(1.0, fidelity("uhlmann", rt, st))
        return _result(-math.log(max(f, 1e-300)), "ng_fid", None, state)
    if kind == "lb1":
        g = min(1.0, fidelity("super", rt, st))
        return _result(-math.log(max(g, 1e-300)), "ng_lb1", None, state)
    d2 = distance("hilbert_schmidt", rt, st) ** 2
    return _result(-math.log(max(1.0 - 0.5 * d2, 1e-300)), "ng_lb2", None, state)


def superfidelity_chain(a, b):
    """(F, G, 1 - D_HS^2/2) for two states; the three are ordered increasingly."""
    f = fidelity("uhlmann", a, b)
    g = fidelity("super", a, b)
    d2 = distance("hilbert_schmidt", a, b) ** 2
    return f, g, 1.0 - 0.5 * d2
