"""Covariance-matrix calculus and Gaussian reference states.

Quadrature ordering is (q1, p1, q2, p2, ...); the symplectic form is
Omega = diag-block [[0, 1], [-1, 0]] and the vacuum covariance is I/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadSpec, ConvergenceFailure, DomainError, UnphysicalCM, check_eta
from .fock import FockState, marginals, partial_trace

PHYSICALITY_TOL = 1e-9

#: Mutual-information kinds, of which the ordered ones take an order alpha
#: and the closed-form ones have covariance-matrix and X-state closed forms;
#: 'tr' alone has none.
MI_KINDS = ("vn", "renyi", "sandwiched", "hs", "tr", "bures")
ORDERED_KINDS = ("renyi", "sandwiched")
CLOSED_FORM_KINDS = ("vn", "renyi", "sandwiched", "hs", "bures")


def mi_kind(kind, alpha=None, kinds=MI_KINDS):
    """Normalised (kind, alpha) of a kind among ``kinds``: 'vn' and order-1
    'sandwiched' are order-1 'renyi' (D(rho || rho_A x rho_B) = I(A:B)), and
    only an ordered kind keeps its order, a finite positive float; 'hs',
    'tr' and 'bures' ignore one."""
    if kind not in kinds:
        raise ValueError(f"mutual-information kind {kind!r} is not one of {kinds}")
    if kind == "vn":
        return "renyi", 1.0
    if kind not in ORDERED_KINDS:
        return kind, None
    if alpha is None:
        raise DomainError("entropic kinds require alpha")
    if not 0.0 < float(alpha) < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha!r}")
    if float(alpha) == 1.0:
        return "renyi", 1.0
    return kind, float(alpha)


def bures_metric(root_fidelity):
    """The 'bures' mutual information sqrt(2 (1 - sqrt F)) from sqrt F, the
    root fidelity of a state and its marginal product, on every route."""
    return math.sqrt(max(0.0, 2.0 * (1.0 - root_fidelity)))


@lru_cache(maxsize=None)
def omega(n_modes):
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.kron(np.eye(n_modes), w)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GaussianSpec:
    """First moments and covariance matrix of an n-mode Gaussian state."""

    means: np.ndarray
    cm: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float).ravel()
        cm = np.asarray(self.cm, dtype=float)
        if cm.shape != (means.size, means.size) or means.size % 2 != 0:
            raise BadSpec(f"inconsistent Gaussian shapes {means.shape} / {cm.shape}")
        if np.max(np.abs(cm - cm.T)) > 1e-10:
            raise UnphysicalCM("covariance matrix not symmetric")
        cm = 0.5 * (cm + cm.T)
        n = means.size // 2
        w = np.linalg.eigvalsh(cm + 0.5j * omega(n))
        if w[0] < -PHYSICALITY_TOL:
            raise UnphysicalCM(
                f"Gamma + (i/2) Omega has eigenvalue {w[0]:.3e} < -{PHYSICALITY_TOL}"
            )
        means.setflags(write=False)
        cm.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "cm", cm)

    @property
    def n_modes(self):
        return self.means.size // 2


@dataclass(frozen=True)
class StandardFormCM:
    """Two-mode standard form diag blocks a, a | b, b and off-diagonals c, d."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if self.a < 0.5 - PHYSICALITY_TOL or self.b < 0.5 - PHYSICALITY_TOL:
            raise UnphysicalCM(f"standard form a={self.a}, b={self.b} below 1/2")
        if self.c < abs(self.d) - 1e-9 or self.c < -1e-12:
            raise UnphysicalCM("standard-form convention requires c >= |d|, c >= 0")

    def assemble(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        return np.array(
            [
                [a, 0.0, c, 0.0],
                [0.0, a, 0.0, d],
                [c, 0.0, b, 0.0],
                [0.0, d, 0.0, b],
            ]
        )


def extract_moments(state):
    """Raw (means, cm) pair without the physicality gate of GaussianSpec.

    <a_j>, <a_j a_k> and <a_j† a_k> come from shifted diagonals of the one-
    and two-mode marginals, and <a_j a_j†> = <a_j† a_j> + 1 exactly: the
    moments of the zero-padded state, so the covariance matrix is physical.
    """
    n = state.n_modes
    # a one-mode state is its own marginal, which its memo must not hold
    singles = state.derive(marginals) if n > 1 else (state,)
    roots = [np.sqrt(np.arange(1, d)) for d in state.dims]
    first = np.empty(n, dtype=complex)
    aa, ada = np.empty((2, n, n), dtype=complex)  # <a_j a_k>, <a_j† a_k>
    for j, s in enumerate(roots):
        r = singles[j].rho
        first[j] = s @ np.diagonal(r, -1)
        aa[j, j] = (s[:-1] * s[1:]) @ np.diagonal(r, -2)
        ada[j, j] = np.arange(s.size + 1) @ np.diagonal(r)
        for k in range(j + 1, n):
            pair = partial_trace(state, [j, k])
            r2 = pair.rho.reshape(pair.dims + pair.dims)
            # sqrt(x+1) sqrt(y+1) times <x+1, y+1|rho|x, y>, and <x, y+1|rho|x+1, y>
            aa[j, k] = aa[k, j] = np.einsum("x,y,xyxy", s, roots[k], r2[1:, 1:, :-1, :-1])
            ada[j, k] = np.einsum("x,y,xyxy", s, roots[k], r2[:-1, 1:, 1:, :-1])
            ada[k, j] = np.conj(ada[j, k])
    # symmetrized products of q = (a + a†)/sqrt(2), p = (a - a†)/(i sqrt(2));
    # <a_j a_k†> = <a_k† a_j> + delta_jk gives the I/2
    means = math.sqrt(2.0) * np.column_stack([first.real, first.imag]).ravel()
    cm = np.empty((2 * n, 2 * n))
    cm[::2, ::2] = (ada + aa).real + 0.5 * np.eye(n)
    cm[1::2, 1::2] = (ada - aa).real + 0.5 * np.eye(n)
    cm[::2, 1::2] = (ada + aa).imag
    cm[1::2, ::2] = cm[::2, 1::2].T
    return means, cm - np.outer(means, means)


def moments_from_fock(state):
    """Extract first moments and the symmetrized covariance matrix."""
    return GaussianSpec(*extract_moments(state))


def _single_mode_williamson_local(block):
    """Symplectic 2x2 S with S A S^T = sqrt(det A) I."""
    det = np.linalg.det(block)
    if det <= 0:
        raise UnphysicalCM("local covariance block not positive definite")
    nu = math.sqrt(det)
    w, v = np.linalg.eigh(block)
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.T
    s = math.sqrt(nu) * inv_sqrt  # symmetric, det 1 => symplectic
    return s, nu


def standard_form(spec):
    """Standard-form parameters of a two-mode covariance matrix, reached by
    local symplectics: local Williamson steps, then the signed singular
    values of the transformed cross block."""
    if spec.n_modes != 2:
        raise BadSpec("standard form defined for two-mode states")
    cm = spec.cm
    sa, a = _single_mode_williamson_local(cm[:2, :2])
    sb, b = _single_mode_williamson_local(cm[2:, 2:])
    cblk = sa @ cm[:2, 2:] @ sb.T
    u, (s1, s2), vt = np.linalg.svd(cblk)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:  # rotations only: sign into s2
        s2 = -s2
    return StandardFormCM(a=float(a), b=float(b), c=float(s1), d=float(s2))


def standard_form_symplectic_eigs(sf):
    """Closed-form symplectic eigenvalues lambda^2 = l +- sqrt(l^2 - m).

    l = (a^2 + b^2 + 2cd)/2, m = (ab - c^2)(ab - d^2).  The tests check
    it against the eigenvalues of i Omega Gamma (acceptance criterion 4).
    """
    a, b, c, d = sf.a, sf.b, sf.c, sf.d
    ell = 0.5 * (a * a + b * b + 2.0 * c * d)
    m = (a * b - c * c) * (a * b - d * d)
    disc = max(0.0, ell * ell - m)
    root = math.sqrt(disc)
    lam1 = math.sqrt(max(0.0, ell + root))
    lam2 = math.sqrt(max(0.0, ell - root))
    return lam1, lam2


def _symplectic_eigs_raw(cm):
    """One representative per +-nu pair of eigenvalues of i Omega Gamma.

    Eigenvalues of the (possibly complex, symmetric) covariance matrix come
    in sign pairs; greedy matching of e with -e is robust even when real
    parts sit numerically on a branch point.
    """
    n = cm.shape[0] // 2
    ev = list(np.linalg.eigvals(1j * omega(n) @ cm))
    reps = []
    while ev:
        e = ev.pop(0)
        j = min(range(len(ev)), key=lambda k: abs(ev[k] + e))
        partner = ev.pop(j)
        pick = e if (e.real, e.imag) >= (partner.real, partner.imag) else partner
        reps.append(pick)
    reps.sort(key=lambda z: (-z.real, -z.imag))
    return np.array(reps)


def _hermite_tensor(a_mat, y, shape):
    """H_k for all k < shape from H_0 = 1 and the recurrence
    H_(k+e_i) = (y_i H_k + sum_j A_ij sqrt(k_j) H_(k-e_j)) / sqrt(k_i + 1).

    Axes are filled last to first, with the axes before axis i held at 0,
    so each step writes one contiguous slab from the slabs before it.
    """
    nax = len(shape)
    h = np.zeros(shape, dtype=complex)
    h[(0,) * nax] = 1.0
    roots = [np.sqrt(np.arange(d)) for d in shape]
    for i in reversed(range(nax)):
        block = h[(0,) * i]
        shifts = []
        for j in range(i + 1, nax):
            bshape = [1] * (nax - i - 1)
            bshape[j - i - 1] = shape[j] - 1
            lead = (slice(None),) * (j - i - 1)
            shifts.append((lead + (slice(1, None),), lead + (slice(None, -1),),
                           a_mat[i, j] * roots[j][1:].reshape(bshape)))
        for k in range(shape[i] - 1):
            cur, dst = block[k, ...], block[k + 1, ...]
            np.multiply(cur, y[i], out=dst)
            if k:
                dst += (a_mat[i, i] * roots[i][k]) * block[k - 1, ...]
            for to, frm, weight in shifts:
                dst[to] += weight * cur[frm]
            dst /= roots[i][k + 1]
    return h


def reference_gaussian_fock(spec, cutoff):
    """Synthesize the Gaussian state with the given moments in Fock basis.

    With beta = (alpha, alpha*) the means and sigma the covariance matrix in
    the (a_1 .. a_n, a_1† .. a_n†) basis, Q = sigma + I/2, A = X (I - Q^-1)*
    (X swaps the two halves) and y = beta - A beta*, the entries are
    <m|rho|n> = exp(-beta† Q^-1 beta / 2) / sqrt(det Q) * H_(m, n), with H
    the renormalised multidimensional Hermite polynomials of A and y
    (Quesada, J. Chem. Phys. 150, 164113 (2019); Miatto & Quesada,
    Quantum 4, 366 (2020)).  Each retained entry is exact; renormalising to
    unit trace absorbs the scalar prefactor.
    """
    n = spec.n_modes
    dims = (cutoff,) * n if np.isscalar(cutoff) else tuple(cutoff)
    if len(dims) != n:
        raise BadSpec("cutoff tuple length must match the mode count")
    # rows of w map (q_1, p_1, ...) to a_m = (q_m + i p_m)/sqrt(2), then a_m†
    w = np.vstack([np.kron(np.eye(n), [1.0, 1j]), np.kron(np.eye(n), [1.0, -1j])])
    w /= math.sqrt(2.0)
    beta = w @ spec.means
    q_inv = np.linalg.inv(w @ spec.cm @ w.conj().T + 0.5 * np.eye(2 * n))
    a_mat = np.roll(np.eye(2 * n) - q_inv, n, axis=0).conj()
    y = beta - a_mat @ beta.conj()
    d = math.prod(dims)
    rho = _hermite_tensor(a_mat, y, dims + dims).reshape(d, d)
    rho += rho.conj().T
    rho *= 1.0 / np.trace(rho).real
    state = FockState(dims, rho, validate=False)
    if state.tail_mass < 1e-7:
        back_means, back_cm = extract_moments(state)
        err = max(
            np.max(np.abs(back_cm - spec.cm)), np.max(np.abs(back_means - spec.means))
        )
        # second moments amplify the truncated tail by roughly the top
        # retained photon number, so the bound scales with the tail mass
        if err > max(1e-6, 1e4 * state.tail_mass):
            raise ConvergenceFailure(
                f"synthesized moments deviate by {err:.3e} despite converged tail"
            )
    return state


def _at_half(lams, mat):
    """The symplectic eigenvalues ``lams`` of the d x d matrix ``mat``, each
    within 2 d eps ||mat||_F of 1/2 set to exactly 1/2: the numerical-rank
    rule of ``fock.Spectrum.rank_floor`` for a spectrum whose floor is 1/2,
    where the closed forms raise lambda - 1/2 to fractional powers.  Twice
    the eigensolve's own scale d eps ||mat||_F, as a composed matrix carries
    rounding of its own (up to 5.1 eps ||mat||_F on the figures' grids)."""
    tol = 2 * mat.shape[0] * np.finfo(float).eps * np.linalg.norm(mat)
    return [0.5 if abs(lam - 0.5) <= tol else lam for lam in lams]


def g_func(x, alpha):
    """g(x, alpha) = 1 / ((x + 1/2)^alpha - (x - 1/2)^alpha)."""
    if x < 0.5 - PHYSICALITY_TOL:
        raise DomainError(f"g undefined for x = {x} < 1/2")
    x = max(x, 0.5)
    return 1.0 / ((x + 0.5) ** alpha - (x - 0.5) ** alpha)


def _g_complex(x, alpha):
    xp = complex(x + 0.5)
    xm = complex(x - 0.5)
    return 1.0 / (xp**alpha - xm**alpha)


def _zeta(x, beta):
    """Thermal parameter of sigma^beta / tr[sigma^beta] for a single mode."""
    xp = complex(x + 0.5)
    xm = complex(x - 0.5)
    return 0.5 * (xp**beta + xm**beta) / (xp**beta - xm**beta)


def _thermal_entropy(x):
    """Von Neumann entropy of a thermal mode with symplectic eigenvalue x."""
    if x <= 0.5:
        return 0.0
    return float((x + 0.5) * math.log(x + 0.5) - (x - 0.5) * math.log(x - 0.5))


def _h_compose(cm1, cm2):
    """Covariance matrix of the (generally non-Hermitian) product sigma1 sigma2."""
    n2 = cm1.shape[0]
    om = omega(n2 // 2)
    i2 = 0.5j * om
    inv = np.linalg.inv(cm1 + cm2)
    return -i2 + (cm2 + i2) @ inv @ (cm1 + i2)


def _standard_of(spec_or_sf):
    return spec_or_sf if isinstance(spec_or_sf, StandardFormCM) else standard_form(spec_or_sf)


def gaussian_mi(kind, spec, alpha=None):
    """Closed-form mutual information of a two-mode Gaussian state.

    kinds (``CLOSED_FORM_KINDS``, as in ``measures.mutual_information``):
    'vn', 'renyi', 'sandwiched' (through the composition-rule pipeline), 'hs'
    and 'bures', whose sqrt F is exp(-D/2) of the order-1/2 sandwiched value
    D = -ln F; order 1 is the von Neumann value.  'tr' has none.
    """
    kind, alpha = mi_kind(kind, alpha, CLOSED_FORM_KINDS)
    if kind == "bures":
        return bures_metric(math.exp(-0.5 * gaussian_mi("sandwiched", spec, 0.5)))
    sf = _standard_of(spec)
    a, b, c, d = sf.a, sf.b, sf.c, sf.d
    if abs(c) < 1e-15 and abs(d) < 1e-15:
        # product state: every correlation measure vanishes, and the entropic
        # pipeline below hits removable 0/0 limits for pure marginals
        return 0.0
    if kind == "hs":
        m1 = (a * b - c * c) * (a * b - d * d)
        m2 = (4 * a * b - c * c) * (4 * a * b - d * d)
        if m1 <= 0 or m2 <= 0:
            raise UnphysicalCM("standard form outside the physical region")
        val = 0.25 / math.sqrt(m1) + 0.25 / (a * b) - 2.0 / math.sqrt(m2)
        return math.sqrt(max(0.0, val))
    a, b, lam1, lam2 = _at_half((a, b, *standard_form_symplectic_eigs(sf)), sf.assemble())
    if 0.5 in (a, b):  # a pure marginal: a product state after all
        return 0.0
    if alpha == 1.0:
        return (
            _thermal_entropy(a)
            + _thermal_entropy(b)
            - _thermal_entropy(lam1)
            - _thermal_entropy(lam2)
        )
    if kind == "renyi":
        num = g_func(a, alpha) * g_func(b, alpha)
        den = g_func(lam1, alpha) * g_func(lam2, alpha)
        return float(math.log(num / den) / (1.0 - alpha))
    return _sandwiched_gaussian(sf, a, b, lam1, alpha)


def _sandwiched_gaussian(sf, a, b, lam1, alpha):
    """Composition-rule pipeline for the relative-entropy type mutual
    information of the standard form ``sf``, given its local symplectic
    eigenvalues a, b and the larger global one, lam1, after ``_at_half``.

    For alpha > 1 the rescaled marginal covariance is an analytic
    continuation (negative thermal parameter), so the intermediate algebra
    is done over the complex field and the result is realized at the end.
    """
    # A pure correlated two-mode Gaussian state has a geometric Schmidt
    # spectrum, so the defining trace diverges for alpha >= 2;
    # the purity margin sits above the sqrt(eps) cancellation noise that the
    # symplectic eigenvalue inherits from (ab - c^2)(ab - d^2)
    if alpha >= 2.0 and lam1 <= 0.5 + 1e-7 and sf.c > 1e-9:
        return math.inf
    beta = (1.0 - alpha) / (2.0 * alpha)
    gm = sf.assemble().astype(complex)
    za = _zeta(a, beta)
    zb = _zeta(b, beta)
    gprime = np.diag([za, za, zb, zb]).astype(complex)
    term1 = (2.0 * alpha / (alpha - 1.0)) * np.log(
        _g_complex(a, beta) * _g_complex(b, beta)
    )
    det1 = np.linalg.det(gprime + gm)
    h1 = _h_compose(gprime, gm)
    det2 = np.linalg.det(h1 + gprime)
    h2 = _h_compose(h1, gprime)
    lam = _at_half(_symplectic_eigs_raw(h2), h2)
    # thermal-series ratio |(lam - 1/2)/(lam + 1/2)| touching the unit
    # circle marks the end of the convergent region of the defining trace
    if max(abs((l - 0.5) / (l + 0.5)) for l in lam) >= 1.0 - 1e-9:
        return math.inf
    term2 = -(alpha / (2.0 * (alpha - 1.0))) * np.log(det1 * det2)
    term3 = (1.0 / (alpha - 1.0)) * np.log(
        _g_complex(lam[0], alpha) * _g_complex(lam[1], alpha)
    )
    total = term1 + term2 + term3
    if abs(total.imag) > 1e-6 * max(1.0, abs(total.real)):
        raise ConvergenceFailure(
            f"sandwiched pipeline returned complex value {total!r}"
        )
    return float(total.real)


def gaussian_log_negativity(spec):
    """Logarithmic negativity max(0, -ln 2 nu_-) from the PPT covariance matrix."""
    if spec.n_modes != 2:
        raise BadSpec("Gaussian log-negativity implemented for two modes")
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    cm_pt = flip @ spec.cm @ flip
    ev = _symplectic_eigs_raw(cm_pt)
    if np.max(np.abs(ev.imag)) > 1e-8:
        raise UnphysicalCM("complex spectrum of partially transposed Gamma")
    nu_min = float(np.min(ev.real))
    if nu_min <= 0:
        raise UnphysicalCM("nonpositive symplectic eigenvalue after PPT")
    return max(0.0, -math.log(2.0 * nu_min))


def analytic_cm(family, **params):
    """Closed-form covariance matrices: lossy ECS and photon-number entangled state."""
    if family == "ecs_loss":
        gamma = float(params["gamma"])
        eta = float(params["eta"])
        check_eta(eta)
        g2 = 2.0 * gamma * gamma
        try:
            x = (eta * gamma * gamma / math.sinh(g2)) * np.diag(
                [math.exp(g2), math.exp(-g2)]
            )
        except (ZeroDivisionError, OverflowError) as exc:
            # gamma = 0 is no state; |gamma| above ~18.8 overflows exp(2 gamma^2)
            raise DomainError(
                f"ecs_loss covariance undefined at gamma = {gamma!r}"
            ) from exc
        half = 0.5 * np.eye(2)
        cm = np.block([[x + half, x], [x, x + half]])
        return GaussianSpec(np.zeros(4), cm)
    if family == "pnes":
        coeffs = np.asarray(params["coeffs"], dtype=complex)
        k = np.arange(coeffs.size)
        a = float(np.sum(k * np.abs(coeffs) ** 2))
        b = float(np.real(np.sum((k[:-1] + 1) * coeffs[:-1].conj() * coeffs[1:])))
        cm = np.array(
            [
                [a + 0.5, 0.0, b, 0.0],
                [0.0, a + 0.5, 0.0, -b],
                [b, 0.0, a + 0.5, 0.0],
                [0.0, -b, 0.0, a + 0.5],
            ]
        )
        return GaussianSpec(np.zeros(4), cm)
    raise BadSpec(f"unknown analytic covariance family {family!r}")
