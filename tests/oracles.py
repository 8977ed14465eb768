"""Reference routes and closed forms that the library is tested against.

The dense routes are the ones that the library's direct kernels replaced:
the loss channel as a sum over Kraus operators built from powers of the
ladder matrix, the moments as traces against the full-space quadrature
operators of ``fock.quadrature_ops``, fig5's sampled states built at the
full cutoff and then truncated, and the distillation's beam splitter as the
exponential of its truncated generator.  They are slow (O(N^6), O(d^3),
O(d^2) and O(d^3)) and kept only to check the fast routes.

The rest are independent routes with no library caller: the lossy
superposition of fig2ef and fig4 as the pure state through the loss
channel (the builder the closed form replaced), the Williamson
decomposition (through a real Schur form, the only use of scipy.linalg),
the symplectic spectrum of a covariance matrix, the Schmidt-weight mutual
informations of pure states, the X-state parameters of a Bell state,
Wootters' spin-flip concurrence and entanglement of formation, the
expectation value tr[O rho], two-state shortcuts for the lb2 measure, the
truncated displacement unitary, and the fidelity, superfidelity and
Hilbert-Schmidt chain of acceptance criterion 10.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ngcorr.channels import apply_loss, ecs_loss_analytic
from ngcorr.errors import ConvergenceFailure, DomainError, UnphysicalCM
from ngcorr.fock import (
    FockState,
    _check_modes,
    _ladder_raw,
    distance,
    fidelity,
    hermitize,
    ladder_ops,
    quadrature_ops,
    truncate_state,
)
from ngcorr.gaussian import (
    PHYSICALITY_TOL,
    _symplectic_eigs_raw,
    moments_from_fock,
    omega,
    reference_gaussian_fock,
)
from ngcorr.measures import MeasureResult, _marginals, marginal_product, reference_state
from ngcorr.states import StateSpec, default_cutoff, make_state
from ngcorr.xstate import XStateParams


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


def beam_splitter(eta, dims):
    """Two-mode beam-splitter unitary on levels ``dims`` at transmittance eta,
    with a -> sqrt(eta) a + sqrt(1-eta) b on coherent inputs, through the
    eigendecomposition of its Hermitian generator.  Exact on the
    photon-number sectors n < min(dims) that the truncation keeps whole."""
    n1, n2 = dims
    theta = math.acos(math.sqrt(eta))
    a = np.kron(_ladder_raw(n1), np.eye(n2))
    b = np.kron(np.eye(n1), _ladder_raw(n2))
    # U = exp(theta (a b† - a† b)) = exp(i theta H), H = i(a† b - a b†)
    h = 1j * (a.conj().T @ b - a @ b.conj().T)
    w, v = np.linalg.eigh(hermitize(h))
    return (v * np.exp(1j * theta * w)) @ v.conj().T


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


def kraus_lossy_ecs(p, cutoff):
    """fig4's and fig2ef's state builder before the closed form: the pure
    superposition at the default cutoff, through the loss channel."""
    state = make_state(StateSpec("ecs", {"gamma": p["gamma"]}, cutoff=cutoff))
    return apply_loss(state, p["eta"])


def dense_sampled_lossy_ecs(p, cutoff):
    """fig5's state builder before its rows came from closed forms: the lossy
    superposition at the full cutoff, then ``truncate_state`` at tolerance
    1e-10."""
    g, eta = p["gamma"], p["eta"]
    if eta * g * g > 1e-8:
        state = ecs_loss_analytic(g, eta, cutoff or default_cutoff(g))
    else:
        state = apply_loss(make_state(StateSpec("ecs", {"gamma": g}, cutoff=cutoff)), eta)
    return truncate_state(state, tol=1e-10)


def expect(op, state):
    """<O> = tr[O rho] for an operator array on the state's space."""
    return complex(np.sum(op.T * state.rho))


def symplectic_eigs(spec):
    """Symplectic spectrum of a physical covariance matrix, descending."""
    ev = _symplectic_eigs_raw(spec.cm)
    if np.max(np.abs(ev.imag)) > 1e-8:
        raise UnphysicalCM("complex symplectic spectrum")
    lam = ev.real
    if lam.size and lam[-1] < 0.5 - PHYSICALITY_TOL:
        raise UnphysicalCM(f"symplectic eigenvalue {lam[-1]} < 1/2")
    return [float(x) for x in lam]


@dataclass(frozen=True)
class SymplecticDecomp:
    """Symplectic S and thermal eigenvalues with S Gamma S^T = diag(lambda_j I_2)."""

    S: np.ndarray
    lambdas: tuple


def williamson(spec):
    """Williamson normal form via the real Schur form of Gamma^-1/2 Omega Gamma^-1/2.

    Self-verifies S Omega S^T = Omega and S Gamma S^T = diag(lambda_j I_2)
    on every call.
    """
    cm = spec.cm
    n = spec.n_modes
    w, v = np.linalg.eigh(cm)
    if w[0] <= 0:
        raise UnphysicalCM("covariance matrix not positive definite")
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.T
    b = inv_sqrt @ omega(n) @ inv_sqrt
    b = 0.5 * (b - b.T)
    t, r = scipy.linalg.schur(b, output="real")
    lambdas = []
    r = r.copy()
    for j in range(n):
        i = 2 * j
        bj = t[i, i + 1]
        if bj < 0:
            r[:, [i, i + 1]] = r[:, [i + 1, i]]
            bj = -bj
        if bj <= 0:
            raise ConvergenceFailure("degenerate Schur block in Williamson step")
        lambdas.append(1.0 / bj)
    order = sorted(range(n), key=lambda j: -lambdas[j])
    perm = []
    for j in order:
        perm.extend([2 * j, 2 * j + 1])
    r = r[:, perm]
    lambdas = [lambdas[j] for j in order]
    delta_sqrt = np.diag(np.repeat(np.sqrt(lambdas), 2))
    s = delta_sqrt @ r.T @ inv_sqrt
    # self-check both decomposition invariants
    if np.max(np.abs(s @ omega(n) @ s.T - omega(n))) > 1e-8:
        raise ConvergenceFailure("Williamson S is not symplectic")
    target = np.diag(np.repeat(lambdas, 2))
    if np.max(np.abs(s @ cm @ s.T - target)) > 1e-7 * max(1.0, np.max(np.abs(cm))):
        raise ConvergenceFailure("Williamson S does not diagonalize Gamma")
    return SymplecticDecomp(S=s, lambdas=tuple(float(x) for x in lambdas))


_SY_SY = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
)


def spin_flip_concurrence(params):
    """Wootters' concurrence from square roots of the spectrum of rho rho~."""
    rho = params.to_matrix()
    w = np.linalg.eigvals(rho @ _SY_SY @ rho.conj() @ _SY_SY)
    roots = np.sort(np.sqrt(np.clip(np.real(w), 0.0, None)))
    return max(0.0, roots[-1] - roots[0] - roots[1] - roots[2])


def wootters_eof(c):
    """Wootters' entanglement of formation h((1 + sqrt(1 - c^2))/2) of a
    concurrence c, through the smaller root q = c^2 / (2 (1 + sqrt(1 - c^2)))
    and log1p, which keep full relative precision at small c."""
    q = c * c / (2.0 * (1.0 + math.sqrt(1.0 - c * c)))
    return -q * math.log(q) - (1.0 - q) * math.log1p(-q) if q > 0.0 else 0.0


def bell_params():
    """X-state parameters of (|+->+|-+>)/sqrt(2)."""
    return XStateParams(a=0.0, b=0.5, c=0.5, d=0.0, u=0.5, v=0.0)


def pure_schmidt_mi(kind, coeffs, alpha=None):
    """Mutual information of sum_k c_k |k>|k> from its Schmidt weights."""
    c = np.abs(np.asarray(coeffs, dtype=complex))
    w = c**2
    if abs(w.sum() - 1.0) > 1e-12:
        raise DomainError("Schmidt coefficients must satisfy sum |c_k|^2 = 1")
    w = w[w > 0.0]
    if kind == "hs":
        s4 = float(np.sum(w**2))
        s6 = float(np.sum(w**3))
        return math.sqrt(max(0.0, 1.0 + s4 * s4 - 2.0 * s6))
    if alpha is None:
        raise DomainError("entropic kinds require alpha")
    alpha = float(alpha)
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    if alpha == 1.0:
        return float(-2.0 * np.sum(w * np.log(w)))
    if kind == "renyi":
        return float(2.0 / (1.0 - alpha) * math.log(np.sum(w**alpha)))
    if kind == "sandwiched":
        e = (2.0 - alpha) / alpha
        return float(alpha / (alpha - 1.0) * math.log(np.sum(w**e)))
    raise ValueError(f"unknown pure_schmidt_mi kind {kind!r}")


#: Preconditions of the reduced two-state evaluations of the lb2 measure.
PRODUCT_CM_TOL = 1e-7
LOCAL_GAUSSIAN_TOL = 1e-6


class CaseNotApplicable(Exception):
    """The structural precondition of an ``ng_lb2_fast`` case does not hold."""


def ng_lb2_fast(case, state, reference=None):
    """Two-state shortcuts for the Hilbert-Schmidt lower bound.

    case 'product_reference': valid when the reference covariance matrix has
    no cross-mode block, so sigma_AB = sigma_A x sigma_B and
    lb2 = -ln(1 - D_HS^2[rho, rho_A x rho_B] / 8).
    case 'local_gaussian': valid when both marginals are Gaussian, so
    lb2 = -ln(1 - D_HS^2[rho, sigma_AB] / 8).
    """
    spec = moments_from_fock(state)
    if case == "product_reference":
        off = np.max(np.abs(spec.cm[:2, 2:]))
        if off >= PRODUCT_CM_TOL:
            raise CaseNotApplicable(
                f"reference is correlated: off-block max {off:.3e}"
            )
        other = marginal_product(state)
    elif case == "local_gaussian":
        ra, rb = _marginals(state)
        for m in (ra, rb):
            mref = reference_gaussian_fock(moments_from_fock(m), m.dims)
            f = fidelity(m, mref)
            if f < 1.0 - LOCAL_GAUSSIAN_TOL:
                raise CaseNotApplicable(
                    f"marginal is non-Gaussian: fidelity to reference {f!r}"
                )
        other = reference_state(state) if reference is None else reference
    else:
        raise ValueError(f"unknown ng_lb2_fast case {case!r}")
    d2 = distance("hilbert_schmidt", state, other) ** 2
    return MeasureResult.on(state, -math.log(max(1.0 - 0.125 * d2, 1e-300)))


def displacement(alpha, cutoff):
    """Displacement unitary exp(alpha a† - alpha* a) on the truncated space.

    Built by exponentiating the (truncated) Hermitian generator, so the
    result is exactly unitary even though it deviates from the ideal
    displacement near the truncation edge.
    """
    a = _ladder_raw(cutoff)
    k = alpha * a.conj().T - np.conjugate(alpha) * a
    h = 1j * k  # Hermitian
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w)) @ v.conj().T
    u.setflags(write=False)
    return u


def superfidelity_chain(a, b):
    """(F, G, 1 - D_HS^2/2) for two states; the three are ordered increasingly.
    G = tr AB + sqrt(1 - tr A^2) sqrt(1 - tr B^2) from its own matrix products,
    not from the library's bound formula."""
    f = fidelity(a, b)
    ab, aa, bb = (float(np.trace(x.rho @ y.rho).real) for x, y in ((a, b), (a, a), (b, b)))
    g = ab + math.sqrt(max(0.0, 1.0 - aa)) * math.sqrt(max(0.0, 1.0 - bb))
    d2 = distance("hilbert_schmidt", a, b) ** 2
    return f, g, 1.0 - 0.5 * d2
