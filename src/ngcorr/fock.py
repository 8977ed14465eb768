"""Truncated Fock-space linear algebra for multimode bosonic states.

Conventions: hbar = 1, vacuum quadrature variance 1/2, natural logarithms.
Mode 0 is always the slowest (leftmost) Kronecker factor.

Every Hermitian eigensolve of a density-matrix-sized operand goes through
``spectra``.  It solves an operand M as one block per total-photon-parity
sector (even and odd n_1 + ... + n_k) when the off-sector part that drops is
within the dense solver's own backward error, ||dropped||_F <= sqrt(d) eps
||M||_F.  On two modes with equal cutoffs each parity block splits again,
into its blocks on the swap-symmetric and antisymmetric states |nn> and
(|mn> +- |nm>)/sqrt 2, when what both splits drop meets the same rule; the
eigenvectors are lifted back onto the parity sector exactly.  Otherwise M is
its parity blocks, or one block.  Every block keeps M's dtype, real or complex.

A ``FockState`` holds rho as float64 when its imaginary part is exactly
zero, as for every state with real parameters, and as complex128 otherwise.

A ``FockState`` keeps what is derived from it alone (``FockState.derive``),
its ``marginals`` and its one eigensystem (``FockState.spectrum``) among
them.  Two kinds of state never solve a d x d operand for it: a ``tensor``
product builds its eigensystem from its factors' (``kron_spectrum``), and a
state built from a few vectors, rho = C C^dag (its ``columns``: a pure
state, the lossy ECS's two branches, the CV-Werner pair), takes it from the
r x r Gram matrices of C's rows in each parity sector (``gram_spectrum``).  Such a spectrum is
thin: it keeps one eigenvector per eigenvalue above its numerical rank.
Dense ``spectra`` solves every other operand.  ``paired`` lines up two
eigensystems so their eigenvectors combine sector by sector.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .errors import (FLAGGED, BadModeIndex, DimMismatch, InvalidCutoff, InvalidState,
                     TruncationError)

#: Default tolerance on the population of the highest retained Fock level.
DEFAULT_TAIL_TOL = 1e-6

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10


def hermitize(mat):
    """Return (M + M†)/2, killing accumulated asymmetric round-off."""
    return 0.5 * (mat + mat.conj().T)


def _tail_mass(pops):
    """Largest single-mode population of the top level of ``pops``, shaped as dims."""
    return max(0.0, *(float(np.sum(pops[(slice(None),) * m + (-1,)])) for m in range(pops.ndim)))


def check_tail(tail, what):
    """The one truncation rule: ``TruncationError`` naming ``what`` when its
    top-level population ``tail`` reaches ``DEFAULT_TAIL_TOL``."""
    if tail >= DEFAULT_TAIL_TOL:
        raise TruncationError(f"{what} tail mass {tail:.3e} >= {DEFAULT_TAIL_TOL}; "
                              "increase cutoff")


def _stored(arr):
    """``arr`` as a read-only contiguous float64 array when its imaginary
    part is exactly zero, else as complex128."""
    arr = np.asarray(arr)
    if np.iscomplexobj(arr) and not arr.imag.any():
        arr = arr.real
    arr = np.ascontiguousarray(arr, dtype=np.result_type(arr, float))
    arr.setflags(write=False)
    return arr


class FockState:
    """Density matrix of an n-mode state with per-mode Fock cutoffs.

    ``dims`` lists the number of retained levels per mode (levels
    ``0 .. N-1``).  ``rho`` is the full density matrix on the tensor
    product space, with mode 0 as the slower Kronecker index.
    ``tail_mass`` records the worst single-mode top-level population;
    convergence-sensitive operations compare it against a tolerance
    instead of silently truncating.  ``factors`` are the states whose
    Kronecker product this is, if it was built as one by ``tensor``.
    ``columns``, given by a builder that forms rho from a few vectors, is
    the d x r matrix C with rho = C C^dag; the spectrum is then read from C
    (``gram_spectrum``).  ``rho`` and ``columns`` are float64 when their
    imaginary parts are exactly zero, else complex128.
    """

    __slots__ = ("dims", "rho", "tail_mass", "factors", "columns", "_derived")

    def __init__(self, dims, rho, validate=True, factors=None, columns=None):
        dims = tuple(int(d) for d in dims)
        rho = _stored(rho)
        d = math.prod(dims)
        if rho.shape != (d, d):
            raise DimMismatch(f"rho shape {rho.shape} != ({d}, {d}) from dims {dims}")
        if validate:
            herm_err = np.max(np.abs(rho - rho.conj().T))
            if herm_err > HERMITICITY_TOL:
                raise InvalidState(f"rho not Hermitian: max asymmetry {herm_err:.3e}")
            tr = np.trace(rho).real
            if abs(tr - 1.0) > TRACE_TOL:
                raise InvalidState(f"trace(rho) = {tr!r}, expected 1")
        self.dims = dims
        self.rho = rho
        self.tail_mass = _tail_mass(np.real(np.diagonal(rho)).reshape(dims))
        self.factors = factors
        self.columns = None if columns is None else _stored(columns)
        self._derived = {}

    @property
    def dim(self):
        return self.rho.shape[0]

    @property
    def n_modes(self):
        return len(self.dims)

    def derive(self, build):
        """``build(self)``, kept with the state (``kept``).  Keep only
        builders of the state alone, whose results are read-only."""
        return kept(self._derived, build, self)

    def spectrum(self):
        """Eigensystem of rho, kept with the state; its arrays are read-only.
        It is the state's only eigensolve: the entropies read its values."""
        return self.derive(_eigensystem)

    def __repr__(self):
        return f"FockState(dims={self.dims}, tail_mass={self.tail_mass:.3e})"


def kept(memo, build, arg):
    """``memo[build]``, set to ``build(arg)`` on first use.  A ``FLAGGED``
    error is kept and raised again, so each build is tried once per memo;
    any other exception propagates and is not kept."""
    if build not in memo:
        try:
            memo[build] = build(arg)
        except FLAGGED as exc:
            memo[build] = exc
    value = memo[build]
    if isinstance(value, BaseException):
        raise value
    return value


def _eigensystem(state):
    """A ``tensor`` product's from its factors', that of a state with
    ``columns`` from their Gram matrices, any other state's solved."""
    if state.factors:
        return kron_spectrum(*(f.spectrum() for f in state.factors))
    if state.columns is not None:
        return gram_spectrum(state.dims, state.columns)
    return spectra(state.dims, state.rho)


LadderOps = namedtuple("LadderOps", ["annihilation", "creation", "number", "q", "p"])


@lru_cache(maxsize=None)
def _ladder_raw(cutoff):
    a = np.zeros((cutoff, cutoff), dtype=complex)
    ks = np.arange(1, cutoff)
    a[ks - 1, ks] = np.sqrt(ks)
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def ladder_ops(cutoff):
    """Single-mode ladder and quadrature operators at the given cutoff.

    q = (a + a†)/sqrt(2), p = (a - a†)/(i sqrt(2)); [q, p] = i holds on
    levels away from the truncation edge.
    """
    if cutoff < 2:
        raise InvalidCutoff(f"cutoff must be >= 2, got {cutoff}")
    a = _ladder_raw(cutoff)
    adag = a.conj().T
    ops = LadderOps(a, adag, adag @ a, (a + adag) / np.sqrt(2),
                    (a - adag) / (1j * np.sqrt(2)))
    for op in ops:
        op.setflags(write=False)
    return ops


def _embed_single_mode(op, dims, mode):
    """Kron-embed a single-mode matrix into the full space."""
    left = np.eye(math.prod(dims[:mode]))
    right = np.eye(math.prod(dims[mode + 1 :]))
    return np.kron(np.kron(left, op), right)


@lru_cache(maxsize=8)
def quadrature_ops(dims):
    """Tuple (q_1, p_1, ..., q_n, p_n) of raw matrices on the full space."""
    dims = tuple(dims)
    out = []
    for m, d in enumerate(dims):
        ops = ladder_ops(d)
        out.append(_embed_single_mode(ops.q, dims, m))
        out.append(_embed_single_mode(ops.p, dims, m))
    for op in out:
        op.setflags(write=False)
    return tuple(out)


def tensor(a, b):
    """Kronecker product of two states; a is the slower factor."""
    return FockState(a.dims + b.dims, np.kron(a.rho, b.rho), validate=False,
                     factors=(a, b))


def _check_modes(dims, modes):
    n = len(dims)
    modes = sorted(set(int(m) for m in modes))
    if not modes:
        raise BadModeIndex("empty mode set")
    if modes[0] < 0 or modes[-1] >= n:
        raise BadModeIndex(f"modes {modes} out of range for {n}-mode state")
    return modes


def partial_trace(state, keep):
    """Trace out all modes not listed in ``keep`` (kept in original order);
    the state itself when ``keep`` names every mode."""
    keep = _check_modes(state.dims, keep)
    n = state.n_modes
    if len(keep) == n:
        return state
    traced = [m for m in range(n) if m not in keep]
    arr = state.rho.reshape(state.dims + state.dims)
    ncur = n
    for m in sorted(traced, reverse=True):
        arr = np.trace(arr, axis1=m, axis2=m + ncur)
        ncur -= 1
    kept_dims = tuple(state.dims[m] for m in keep)
    d = math.prod(kept_dims)
    return FockState(kept_dims, arr.reshape(d, d), validate=False)


def marginals(state):
    """The one-mode marginals of a multimode state, in mode order."""
    return tuple(partial_trace(state, [m]) for m in range(state.n_modes))


def partial_transpose(state, mode):
    """Transpose one mode of the density matrix; output may be non-positive."""
    modes = _check_modes(state.dims, [mode])
    m = modes[0]
    n = state.n_modes
    arr = state.rho.reshape(state.dims + state.dims)
    arr = np.swapaxes(arr, m, m + n)
    return hermitize(arr.reshape(state.dim, state.dim))


def truncate_state(state, tol=1e-9):
    """Cut each mode to the fewest levels, at least four, that leave less
    than ``tol`` of its population at and above the top level, plus two
    margin levels, and renormalise; the input itself when nothing can be
    cut.  The margin levels do not protect the moments, which are exact on
    the zero-padded state."""
    pops = np.real(np.diagonal(state.rho)).reshape(state.dims)
    n = pops.ndim
    new_dims = []
    for m in range(n):
        marg = np.apply_over_axes(np.sum, pops, [ax for ax in range(n) if ax != m]).ravel()
        keep = pops.shape[m]
        while keep > 4 and marg[keep - 1 :].sum() < tol:
            keep -= 1
        new_dims.append(min(pops.shape[m], keep + 2))
    new_dims = tuple(new_dims)
    if new_dims == state.dims:
        return state
    sl = tuple(slice(0, d) for d in new_dims) * 2
    rho = state.rho.reshape(state.dims * 2)[sl].reshape(math.prod(new_dims), -1)
    return FockState(new_dims, rho / np.trace(rho).real, validate=False)


class Spectrum(namedtuple("Spectrum", ["sectors", "values", "vectors"])):
    """Eigensystem of one operand, sector by sector.

    ``sectors`` holds each block's basis indices, ascending: sector k holds
    the states of total parity k when the operand took the parity split
    (``split``), else there is one full-basis block.  ``values`` holds each
    block's ascending eigenvalues and ``vectors`` its eigenvectors as
    columns within the sector, in the operand's dtype (None when only
    eigenvalues were asked for); two exchange blocks of a parity sector are
    merged into it.  A thin spectrum (``gram_spectrum``) keeps one vector
    column per value above its numerical rank; a sector may keep none.
    """

    __slots__ = ()

    @property
    def split(self):
        """Whether the operand took the parity split: more than one sector."""
        return len(self.sectors) > 1

    def eigenvalues(self):
        """All eigenvalues, sector after sector."""
        return np.concatenate(self.values)

    def rank_floor(self):
        """Numerical-rank threshold w_max d eps of the whole operand, d the
        dimension its sectors span (thin or not)."""
        d = sum(idx.size for idx in self.sectors)
        return float(np.max(self.eigenvalues())) * d * np.finfo(float).eps

    def one_block(self):
        """The same eigensystem as one full-basis block, each sector's
        vectors placed at its indices.  Exact, with no re-solve."""
        if not self.split:
            return self
        d = sum(idx.size for idx in self.sectors)
        w = self.eigenvalues()
        vectors = np.zeros((d, w.size), dtype=np.result_type(*self.vectors))
        start = 0
        for idx, vecs in zip(self.sectors, self.vectors):
            vectors[idx, start : start + vecs.shape[1]] = vecs
            start += vecs.shape[1]
        return _read_only(Spectrum((np.arange(d),), (w,), (vectors,)))


def _read_only(spec):
    for group in (spec.sectors, spec.values, spec.vectors):
        for arr in group or ():
            arr.setflags(write=False)
    return spec


def _parity_layout(dims):
    """Each nonempty total-parity sector's basis indices, ascending, and the
    order its block is gathered in.  When the mode swap maps the basis onto
    itself (two modes, equal cutoffs) that order is [diagonal |nn>, lower
    pairs |mn> with m > n, their images |nm>], and the diagonal count comes
    with it; else it is ascending, with None."""
    n = np.indices(dims).reshape(len(dims), -1)
    parity = n.sum(axis=0) % 2
    swap = len(dims) == 2 and dims[0] == dims[1]
    out = []
    for idx in (np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)):
        if not idx.size:
            continue
        if swap:
            a, b = n[:, idx]
            diag, lower = idx[a == b], idx[a > b]
            upper = lower % dims[0] * dims[0] + lower // dims[0]
            out.append((idx, np.concatenate([diag, lower, upper]), diag.size))
        else:
            out.append((idx, idx, None))
    return out


def _pair_rotation(x, nd):
    """Q x for the orthogonal Q = Q^T that takes the rows [diagonal |nn>,
    lower |mn>, upper |nm>] of a parity sector (``_parity_layout``) to
    [|nn>, (|mn> + |nm>)/sqrt 2, (|mn> - |nm>)/sqrt 2]: slice sums, no gather."""
    m = (x.shape[0] - nd) // 2
    lo, up = x[nd : nd + m], x[nd + m :]
    return np.concatenate([x[:nd], (lo + up) * math.sqrt(0.5), (lo - up) * math.sqrt(0.5)])


def _exchange_eigensystem(rotated, nd, order, solve):
    """One parity sector's eigensystem from Q B Q (``_pair_rotation``) of its
    block B: the swap-symmetric and antisymmetric blocks solved, their values
    merged ascending and their vectors lifted by Q onto the sector's ascending
    basis (``order`` is the gather order); vectors None when ``solve``'s are."""
    k = (rotated.shape[0] + nd) // 2
    (ws, ys), (wa, ya) = (solve(hermitize(b)) for b in (rotated[:k, :k], rotated[k:, k:]))
    values = np.concatenate([ws, wa])
    cols = np.argsort(values, kind="stable")
    if ys is None:
        return values[cols], None
    vecs = np.zeros(rotated.shape, dtype=np.result_type(ys, ya))
    vecs[:k, :k], vecs[k:, k:] = ys, ya
    lifted = _pair_rotation(vecs, nd)
    return values[cols], lifted.take(np.argsort(order), axis=0).take(cols, axis=1)


def _drops_within(dropped, d, norm):
    """Whether a split of a d x d operand M, ||M||_F = ``norm``, that drops
    parts of Frobenius norms ``dropped`` meets ||dropped||_F <= sqrt(d) eps ||M||_F."""
    return bool(math.hypot(*dropped) <= math.sqrt(d) * np.finfo(float).eps * norm)


def spectra(dims, mat, vectors=True):
    """Hermitian eigensystem of one operand on ``dims``, as a Spectrum with
    read-only arrays in ``mat``'s dtype: two parity sectors, each solved as
    its two exchange blocks when they split too, or one block (see the
    module docstring).  ``vectors=False`` solves for the values alone, for
    operands that are not states (a state's is its ``spectrum``)."""
    layout = _parity_layout(dims)
    # each parity block gathered once: the parity split drops the others
    grid = [[rows.take(c, axis=1) for _, c, _ in layout]
            for rows in (mat.take(r, axis=0) for _, r, _ in layout)]
    blocks = [row[k] for k, row in enumerate(grid)]
    dropped = [np.linalg.norm(b) for r, row in enumerate(grid)
               for c, b in enumerate(row) if r != c]
    d, norm = mat.shape[0], np.linalg.norm(mat)
    split = _drops_within(dropped, d, norm)
    sectors = tuple(idx for idx, _, _ in layout)
    solve = np.linalg.eigh if vectors else lambda b: (np.linalg.eigvalsh(b), None)
    if split and layout[0][2] is not None:
        # Q B Q couples the symmetric and antisymmetric blocks off its
        # diagonal blocks; the exchange split drops those couplings too
        rotated = [_pair_rotation(_pair_rotation(b, nd).T, nd).T
                   for b, (_, _, nd) in zip(blocks, layout)]
        for r, (_, _, nd) in zip(rotated, layout):
            k = (r.shape[0] + nd) // 2
            dropped += [np.linalg.norm(r[:k, k:]), np.linalg.norm(r[k:, :k])]
        if _drops_within(dropped, d, norm):
            values, vecs = zip(*(_exchange_eigensystem(r, nd, order, solve)
                                 for r, (_, order, nd) in zip(rotated, layout)))
            return _read_only(Spectrum(sectors, values, vecs if vectors else None))
        # the parity path solves each block in ascending basis order
        perms = (np.argsort(order) for _, order, _ in layout)
        blocks = [b.take(p, axis=0).take(p, axis=1) for b, p in zip(blocks, perms)]
    if not split:
        sectors, blocks = (np.arange(d),), [mat]
    values, vecs = zip(*(solve(hermitize(b)) for b in blocks))
    return _read_only(Spectrum(sectors, values, vecs if vectors else None))


def kron_spectrum(a, b):
    """Spectrum of the Kronecker product of two operands, built from theirs
    with no eigensolve: eigenvalues w_a w_b and eigenvectors u_a (x) u_b.

    When both took the parity split (``Spectrum.split``), the products of
    a's sector k_a and b's sector k_b form part of the total-parity sector
    (k_a + k_b) mod 2, laid out as ``spectra`` lays it out; otherwise the
    product is one full-basis block.  The vectors take the factors' common
    dtype.  The small products keep full relative precision, where a solve
    of the assembled product resolves eigenvalues only to about w_max d eps.
    """
    if not (a.split and b.split):
        a, b = a.one_block(), b.one_block()
    nb = sum(idx.size for idx in b.sectors)
    parts = ([], [])
    for ka, (ia, wa, ua) in enumerate(zip(a.sectors, a.values, a.vectors)):
        for kb, (ib, wb, ub) in enumerate(zip(b.sectors, b.values, b.vectors)):
            flat = (ia[:, None] * nb + ib[None, :]).ravel()
            parts[(ka + kb) % 2].append((flat, np.outer(wa, wb).ravel(), ua, ub))
    dtype = np.result_type(*a.vectors, *b.vectors)
    sectors, values, vectors = [], [], []
    for group in parts:
        if not group:
            continue
        idx = np.sort(np.concatenate([flat for flat, *_ in group]))
        w = np.concatenate([wab for _, wab, *_ in group])
        v = np.zeros((idx.size, w.size), dtype=dtype)
        start = 0
        for flat, wab, ua, ub in group:
            v[np.searchsorted(idx, flat), start : start + wab.size] = np.kron(ua, ub)
            start += wab.size
        order = np.argsort(w, kind="stable")
        sectors.append(idx)
        values.append(w[order])
        vectors.append(v[:, order])
    return _read_only(Spectrum(tuple(sectors), tuple(values), tuple(vectors)))


def gram_spectrum(dims, cols):
    """Spectrum of rho = C C^dag on ``dims`` from the d x r matrix C
    (``FockState.columns``), with no d x d solve: each block's nonzero
    eigenvalues are those of the r x r Gram matrix G = C_k^dag C_k of its
    rows C_k, G Y = Y diag(w), and its eigenvectors C_k Y / sqrt(w), in C's
    dtype.  The Spectrum is thin: values at or below the rank floor
    w_max d eps (``Spectrum.rank_floor``) are cut with their vectors.  C
    takes ``spectra``'s parity split under the same rule, the dropped part
    measured through the Gram matrices: ||rho_eo||_F^2 = tr(G_e G_o) and
    ||rho||_F = ||C^dag C||_F.
    """
    d = cols.shape[0]
    sectors = tuple(idx for idx, _, _ in _parity_layout(dims))
    parts = [cols.take(idx, axis=0) for idx in sectors]
    grams = [c.conj().T @ c for c in parts]
    if len(grams) == 2:
        # both off-diagonal blocks, each of squared norm tr(G_e G_o)
        dropped = 2.0 * float(np.sum(grams[0] * grams[1].T).real)
        if not _drops_within([math.sqrt(max(dropped, 0.0))], d, np.linalg.norm(sum(grams))):
            sectors, parts, grams = (np.arange(d),), [cols], [sum(grams)]
    solved = [np.linalg.eigh(g) for g in grams]
    floor = Spectrum(sectors, [w for w, _ in solved], None).rank_floor()
    values, vectors = [], []
    for c, (w, y) in zip(parts, solved):
        keep = w > floor
        values.append(w[keep])
        vectors.append((c @ y[:, keep]) / np.sqrt(w[keep]))
    return _read_only(Spectrum(sectors, tuple(values), tuple(vectors)))


def paired(a, b):
    """Two same-dims Spectrums on shared sectors, so their eigenvectors
    combine sector by sector: as they are when both took the parity split
    (``Spectrum.split``), else each as one full-basis block
    (``Spectrum.one_block``)."""
    if a.split and b.split:
        return a, b
    return a.one_block(), b.one_block()


def support_overlaps(rho, sigma, floor):
    """(p, s, V^dag U) of each sector of the ``paired`` Spectrums
    rho = U diag(p) U^dag and sigma = V diag(s) V^dag: p and U hold rho's
    eigenpairs above its numerical rank (``Spectrum.rank_floor``), s and V
    sigma's with eigenvalues above ``floor``.  One product per sector, which
    every reader of the pair's overlaps shares."""
    floor_p = rho.rank_floor()
    out = []
    for pw, pu, sw, su in zip(rho.values, rho.vectors, sigma.values, sigma.vectors):
        kp, ks = pw > floor_p, sw > floor
        out.append((pw[kp], sw[ks], su[:, ks].conj().T @ pu[:, kp]))
    return out


def sandwich_singular_values(overlaps, b):
    """Singular values of A = diag(s^b) V^dag U diag(sqrt(p)), sector by
    sector, from ``support_overlaps`` over sigma's positive eigenvalues: the
    square roots of the nonzero spectrum of sigma^b rho sigma^b, resolved to
    absolute accuracy ||A|| eps where an eigensolve of that product would
    square its geometric tail below the noise floor."""
    out = [np.zeros(0)]
    for p, s, m in overlaps:
        ks = s > 0.0
        mat = (s[ks, None] ** b) * m[ks]
        mat = mat * np.sqrt(p)[None, :]
        if mat.size:
            out.append(np.linalg.svd(mat, compute_uv=False))
    return np.concatenate(out)


def _check_same_dims(a, b):
    if a.dims != b.dims:
        raise DimMismatch(f"dims {a.dims} != {b.dims}")


def distance(kind, a, b):
    """Trace distance (1/2)tr|A-B| or Hilbert-Schmidt distance sqrt(tr(A-B)^2)."""
    _check_same_dims(a, b)
    delta = a.rho - b.rho
    if kind == "trace":
        spec = spectra(a.dims, delta, vectors=False)
        return float(0.5 * np.sum(np.abs(spec.eigenvalues())))
    if kind == "hilbert_schmidt":
        return float(np.sqrt(np.sum(np.abs(delta) ** 2)))
    raise ValueError(f"unknown distance kind {kind!r}")


def overlap(a, b):
    """tr[rho sigma] for two Hermitian matrices, via an elementwise sum."""
    _check_same_dims(a, b)
    return float(np.real(np.sum(a.rho * b.rho.conj())))


def fidelity(a, b):
    """Uhlmann fidelity (tr sqrt(sqrt(A) B sqrt(A)))^2 of two states."""
    _check_same_dims(a, b)
    # tr sqrt(sqrt(A) B sqrt(A)) is the sum of the b = 1/2 values
    sa, sb = paired(a.spectrum(), b.spectrum())
    svals = sandwich_singular_values(support_overlaps(sa, sb, sb.rank_floor()), 0.5)
    return float(np.sum(svals) ** 2)


def unit_vector(vec):
    """The flat amplitude vector ``vec`` normalised; ``TruncationError`` when
    it vanishes, as a state with no amplitude below the cutoff does."""
    vec = np.asarray(vec).ravel()
    norm = np.linalg.norm(vec)
    if not norm > 0.0:
        raise TruncationError("the state vanishes at this cutoff")
    return vec / norm


def pure_state(vec, dims):
    """|psi><psi| as a FockState from a flat amplitude vector, normalised;
    its one column is |psi>; exactly Hermitian, so not validated."""
    vec = unit_vector(vec)
    return FockState(dims, np.outer(vec, vec.conj()), validate=False,
                     columns=vec[:, None])


def log_factorials(count):
    """ln n! for n = 0 .. count - 1."""
    return np.array([math.lgamma(k + 1) for k in range(count)])


def coherent_amps(gamma, cutoff):
    """Fock amplitudes of |gamma>, truncated (not renormalized); real for a
    real gamma."""
    n = np.arange(cutoff)
    if gamma == 0:
        return np.eye(1, cutoff)[0]
    # log-domain magnitude avoids overflow of gamma**n / sqrt(n!)
    logmag = n * math.log(abs(gamma)) - 0.5 * log_factorials(cutoff) - 0.5 * abs(gamma) ** 2
    # powers by repeated multiplication: exactly (-1)^n for a real negative gamma
    phase = np.cumprod(np.r_[1.0, np.full(cutoff - 1, gamma / abs(gamma))])
    return np.exp(logmag) * phase


def cat_vectors(gamma, cutoff):
    """Normalised even and odd cat vectors |gamma> +- |-gamma> at ``cutoff``;
    at gamma = 0, their limits |0> and |1>."""
    c, cm = coherent_amps(gamma, cutoff), coherent_amps(-gamma, cutoff)
    plus, minus = (c + cm, c - cm) if complex(gamma) else np.eye(2, cutoff)
    return unit_vector(plus), unit_vector(minus)
