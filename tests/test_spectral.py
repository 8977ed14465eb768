"""The parity- and exchange-blocked eigensolves of ``fock.spectra``, real
and complex, and the thin Gram spectrum of a state built from a few vectors
(``fock.gram_spectrum``), against the dense paths they replace.

The dense path lives on here only, as the oracle: every eigensolve is one
complex LAPACK call on the full d = N1 N2 space, exactly as the measures
ran it before ``spectra``.  The one change from that code is the alpha = 1
trace tr[rho log sigma], which the old code took as tr[rho (log sigma)^T];
the two differ for complex operands (see test_relative_entropy_of_complex_states).
"""

import io
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from ngcorr import fock
from ngcorr.channels import apply_loss, ecs_loss_analytic
from ngcorr.cli import measure_rows, write_csv
from ngcorr.distill import DistillConfig, _projected_bs, distill
from ngcorr.entanglement import log_negativity_fock
from ngcorr.figures import FIGURES, Point, measure
from ngcorr.fock import (
    FockState,
    coherent_amps,
    distance,
    fidelity,
    hermitize,
    paired,
    partial_trace,
    partial_transpose,
    pure_state,
    spectra,
    tensor,
)
from ngcorr.measures import (
    SUPPORT_LEAK_TOL,
    averaged_states,
    marginal_product,
    mutual_information,
    ng_correlation,
    sandwiched_relative_entropy,
)
from ngcorr.states import StateSpec, make_state
from sampling import random_two_mode_state

TWO_LN_2 = 2.0 * math.log(2.0)
ALPHAS = (0.5, 0.9, 1.0, 1.5, 2.0)
TOL = 1e-12

#: Tolerance for the quantities whose dense oracle does not reproduce itself
#: to 1e-12: -ln F of the averaged lossy-ECS pair (ng:fid) and the alpha = 2
#: sandwiched divergence of the lossy ECS at cutoff 20.  Both sum many terms
#: from eigenvalues just above the numerical-rank threshold.  Conjugating the
#: operands by a diagonal phase unitary, which leaves every value unchanged
#: in exact arithmetic, moved the oracle's ng:fid by up to 1.3e-11 (cutoff
#: 20) and 4.3e-11 (cutoff 30), and its alpha = 2 value by up to 8.9e-12
#: (cutoff 20), over 10 to 14 phase draws each.  The bound sits ten times
#: above the largest of these.
ILL_CONDITIONED_TOL = 5e-10
ILL_CONDITIONED = {
    ("lossy_ecs_20", "sandwiched", 2.0),
    ("lossy_ecs_20", "ng", "fid"),
    ("lossy_ecs_30", "ng", "fid"),
}


# --- the dense complex oracle ----------------------------------------------

def _dense(mat):
    return hermitize(np.asarray(mat, dtype=complex))


def _rank_floor(w):
    """Numerical-rank threshold w_max d eps of the eigenvalues ``w``."""
    return float(np.max(w)) * w.size * np.finfo(float).eps


def dense_entropy(state, alpha):
    w = np.linalg.eigvalsh(_dense(state.rho))
    w = w[w > _rank_floor(w)]
    if alpha == 1.0:
        return float(-np.sum(w * np.log(w)))
    return float(math.log(np.sum(w**alpha)) / (1.0 - alpha))


def dense_sandwiched(rho, sigma, alpha):
    if alpha >= 1.0:
        ws, vs = np.linalg.eigh(_dense(sigma.rho))
        off = vs[:, ws <= _rank_floor(ws)]
        leak = float(np.real(np.sum(off.conj() * (rho.rho @ off))))
        if leak > SUPPORT_LEAK_TOL:
            return math.inf
    if alpha == 1.0:
        on = ws > _rank_floor(ws)
        log_sigma = (vs[:, on] * np.log(ws[on])) @ vs[:, on].conj().T
        wr = np.linalg.eigvalsh(_dense(rho.rho))
        wr = wr[wr > _rank_floor(wr)]
        tr_rho_log_sigma = float(np.real(np.sum(rho.rho * log_sigma.T)))
        return float(np.sum(wr * np.log(wr))) - tr_rho_log_sigma
    b = (1.0 - alpha) / (2.0 * alpha)
    pw, pu = np.linalg.eigh(_dense(rho.rho))
    keep_p = pw > _rank_floor(pw)
    sw, su = np.linalg.eigh(_dense(sigma.rho))
    keep_s = sw > 0.0
    a_mat = (sw[keep_s, None] ** b) * (su[:, keep_s].conj().T @ pu[:, keep_p])
    a_mat = a_mat * np.sqrt(pw[keep_p])[None, :]
    w = np.linalg.svd(a_mat, compute_uv=False) ** 2
    w = w[w > 0.0]
    return float(math.log(np.sum(w**alpha)) / (alpha - 1.0))


def dense_trace_distance(a, b):
    w = np.linalg.eigvalsh(_dense(a.rho - b.rho))
    return float(0.5 * np.sum(np.abs(w)))


def dense_uhlmann(a, b):
    wa, va = np.linalg.eigh(_dense(a.rho))
    ka = wa > _rank_floor(wa)
    wb, vb = np.linalg.eigh(_dense(b.rho))
    kb = wb > _rank_floor(wb)
    cross = (vb[:, kb].conj().T @ va[:, ka]) * np.sqrt(wa[ka])[None, :]
    cross = np.sqrt(wb[kb])[:, None] * cross
    return float(np.sum(np.linalg.svd(cross, compute_uv=False)) ** 2)


def dense_mi(kind, state, alpha=None):
    """The mutual information of ``kind``; order-1 sandwiched is D(rho || rho_A x
    rho_B) = I(A:B), read from the entropies as ``mutual_information`` does."""
    prod = marginal_product(state)
    if kind in ("vn", "renyi") or (kind, alpha) == ("sandwiched", 1.0):
        alpha = 1.0 if kind != "renyi" else alpha
        ra, rb = partial_trace(state, [0]), partial_trace(state, [1])
        return (dense_entropy(ra, alpha) + dense_entropy(rb, alpha)
                - dense_entropy(state, alpha))
    if kind == "sandwiched":
        return dense_sandwiched(state, prod, alpha)
    if kind == "hs":
        return float(np.linalg.norm(state.rho - prod.rho))
    if kind == "tr":
        return dense_trace_distance(state, prod)
    f = min(1.0, dense_uhlmann(state, prod))
    return math.sqrt(max(0.0, 2.0 * (1.0 - math.sqrt(f))))


def dense_log_negativity(state):
    pt = partial_transpose(state, state.n_modes - 1)
    w = np.linalg.eigvalsh(_dense(pt))
    return max(0.0, float(math.log(np.sum(np.abs(w)))))


#: Branches of ``dense_distill`` at or below this probability are dropped.
BRANCH_FLOOR = 1e-14


def dense_distill(state, config):
    """The postselected state summed over the pure branches of a dense eigh."""
    da, db = state.dims
    ma = _projected_bs(da, config, config.x_c)
    mb = _projected_bs(db, config, config.x_d)
    w, v = np.linalg.eigh(_dense(state.rho))
    out = np.zeros((da * db, da * db), dtype=complex)
    weight = 0.0
    for p, vec in zip(w, v.T):
        if p <= BRANCH_FLOOR:
            continue
        flat = (ma @ vec.reshape(da, db) @ mb.T).ravel()
        out += p * np.outer(flat, flat.conj())
        weight += p * float(np.real(np.vdot(flat, flat)))
    return hermitize(out) / weight, weight


# --- states ------------------------------------------------------------------

def lossy_ecs(cutoff, eta=0.7):
    return apply_loss(make_state(StateSpec("ecs", {"gamma": 1.0}, cutoff=cutoff)), eta)


def lossy_complex_pnes():
    """Complex Schmidt amplitudes: rho is complex, its marginals real."""
    c = np.array([0.8, 0.5j, 0.3 - 0.2j])
    spec = StateSpec("pnes", {"coeffs": tuple(c / np.linalg.norm(c))}, cutoff=10)
    return apply_loss(make_state(spec), 0.8)


def ginibre(dims, seed=7):
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return FockState(dims, hermitize(rho / np.trace(rho).real))


def coherent_product():
    a = make_state(StateSpec("coherent", {"gamma": 0.8 + 0.5j}, cutoff=14))
    b = make_state(StateSpec("coherent", {"gamma": -0.3 + 0.9j}, cutoff=14))
    return tensor(a, b)


STATES = {
    "lossy_ecs_20": lambda: lossy_ecs(20),
    "lossy_ecs_30": lambda: lossy_ecs(30),
    "tmsv": lambda: make_state(StateSpec("tmsv", {"r": 0.6}, cutoff=24)),
    "cv_werner": lambda: make_state(StateSpec("cv_werner", {"f": 0.6, "r": 0.2}, cutoff=12)),
    "coherent_product": coherent_product,
    "ginibre": lambda: ginibre((4, 5)),
}

#: Whether spectra may split each state into two parity sectors.
PARITY_BLOCKED = {
    "lossy_ecs_20": True,
    "lossy_ecs_30": True,
    "tmsv": True,
    "cv_werner": True,
    "coherent_product": False,
    "ginibre": False,
}


MI_CASES = [("vn", None), ("hs", None), ("tr", None), ("bures", None)] + [
    (kind, a) for kind in ("renyi", "sandwiched") for a in ALPHAS if a != 1.0
] + [("sandwiched", 1.0)]


def _tolerance(*case):
    return ILL_CONDITIONED_TOL if case in ILL_CONDITIONED else TOL


@pytest.mark.parametrize("name", list(STATES))
def test_structure_decision(name):
    state = STATES[name]()
    spec = spectra(state.dims, state.rho, vectors=False)
    assert spec.split is PARITY_BLOCKED[name]
    assert len(spec.sectors) == (2 if PARITY_BLOCKED[name] else 1)
    assert sorted(np.concatenate(spec.sectors)) == list(range(state.dim))


@pytest.mark.parametrize("name", list(STATES))
def test_mutual_information_matches_dense_oracle(name):
    state = STATES[name]()
    for kind, alpha in MI_CASES:
        got = mutual_information(kind, state, alpha).value
        want = dense_mi(kind, state, alpha)
        assert got == pytest.approx(want, abs=_tolerance(name, kind, alpha)), (kind, alpha)
    # the order-1 divergence of a generic pair keeps its own route
    prod = marginal_product(state)
    assert sandwiched_relative_entropy(state, prod, 1.0) == pytest.approx(
        dense_sandwiched(state, prod, 1.0), abs=TOL)


@pytest.mark.parametrize("gamma", (0.5, 1.0, 1.5))
def test_pure_ecs_anchor_matches_dense_oracle(gamma):
    state = make_state(StateSpec("ecs", {"gamma": gamma}, cutoff=30))
    spec = spectra(state.dims, state.rho, vectors=False)
    assert spec.split and state.rho.dtype == np.float64
    for kind in ("renyi", "sandwiched"):
        for alpha in ALPHAS:
            got = mutual_information(kind, state, alpha).value
            assert got == pytest.approx(dense_mi(kind, state, alpha), abs=TOL)
            assert got == pytest.approx(TWO_LN_2, abs=1e-6)


@pytest.mark.parametrize("name", [n for n in STATES if n != "ginibre"])
def test_ng_measures_match_dense_oracle(name):
    state = STATES[name]()
    rt, st = averaged_states(state)
    assert ng_correlation("tr", state).value == pytest.approx(
        dense_trace_distance(rt, st), abs=TOL)
    f = min(1.0, dense_uhlmann(rt, st))
    assert ng_correlation("fid", state).value == pytest.approx(
        -math.log(max(f, 1e-300)), abs=_tolerance(name, "ng", "fid"))


def test_averaged_pair_primitives_on_ginibre_states_match_dense_oracle():
    # a random state has no Gaussian reference on four levels, so the
    # averaged-state primitives are checked on a pair of random states
    a, b = ginibre((4, 5), seed=1), ginibre((4, 5), seed=2)
    assert distance("trace", a, b) == pytest.approx(dense_trace_distance(a, b), abs=TOL)
    assert fidelity(a, b) == pytest.approx(dense_uhlmann(a, b), abs=TOL)


@pytest.mark.parametrize("name", list(STATES))
def test_log_negativity_matches_dense_oracle(name, monkeypatch):
    monkeypatch.setattr(fock, "DEFAULT_TAIL_TOL", 1.0)
    state = STATES[name]()
    assert log_negativity_fock(state) == pytest.approx(
        dense_log_negativity(state), abs=TOL)


@pytest.mark.parametrize("name", ["lossy_ecs_20", "tmsv", "cv_werner",
                                  "coherent_product", "ginibre"])
def test_distill_matches_dense_oracle(name):
    state = STATES[name]()
    config = DistillConfig(eta_bs=0.9, x_c=0.8, x_d=0.8)
    out, weight = distill(state, config)
    want, want_weight = dense_distill(state, config)
    assert weight == pytest.approx(want_weight, rel=1e-12)
    assert np.max(np.abs(out.rho - want)) < TOL


def test_relative_entropy_of_complex_states():
    # tr[rho log sigma] for complex operands against scipy's matrix logarithm
    scipy_linalg = pytest.importorskip("scipy.linalg")
    a, b = ginibre((3, 3), seed=3), ginibre((3, 3), seed=4)
    want = float(np.real(np.trace(
        a.rho @ (scipy_linalg.logm(a.rho) - scipy_linalg.logm(b.rho)))))
    got = sandwiched_relative_entropy(a, b, 1.0)
    assert math.isfinite(got)
    assert got == pytest.approx(want, abs=1e-12)
    assert dense_sandwiched(a, b, 1.0) == pytest.approx(want, abs=1e-12)


def _off_parity_perturbation(state, scale, seed=11):
    """Hermitian real perturbation on the off-parity entries only, of
    Frobenius norm scale * sqrt(d) eps ||rho||_F."""
    parity = np.indices(state.dims).sum(axis=0).ravel() % 2
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(state.dim, state.dim))
    h = (h + h.T) * (parity[:, None] != parity[None, :])
    bound = math.sqrt(state.dim) * np.finfo(float).eps * np.linalg.norm(state.rho)
    h *= scale * bound / np.linalg.norm(h)
    return FockState(state.dims, state.rho + h, validate=False)


def test_drop_bound_decides_the_split():
    state = lossy_ecs(20)
    below = spectra(state.dims, _off_parity_perturbation(state, 0.9).rho)
    assert below.split and below.vectors[0].dtype == np.float64
    above = spectra(state.dims, _off_parity_perturbation(state, 1.1).rho)
    assert not above.split and above.vectors[0].dtype == np.float64
    # a split operand paired with one above the bound joins it in one block
    pair = paired(spectra(state.dims, state.rho), above)
    assert [len(s.sectors) for s in pair] == [1, 1]


def test_perturbed_state_above_the_bound_matches_dense_oracle():
    state = _off_parity_perturbation(lossy_ecs(20), 1.1)
    for kind, alpha in (("vn", None), ("renyi", 0.5), ("sandwiched", 0.5),
                        ("sandwiched", 1.5), ("tr", None), ("bures", None)):
        got = mutual_information(kind, state, alpha).value
        assert got == pytest.approx(dense_mi(kind, state, alpha), abs=TOL), (kind, alpha)


def _record_solves(monkeypatch):
    """Operands of every ``fock.spectra`` call and of every numpy.linalg eigh
    and eigvalsh call, in call order."""
    calls = []
    for owner, name in ((fock, "spectra"), (np.linalg, "eigh"), (np.linalg, "eigvalsh")):
        original = getattr(owner, name)
        operand = 1 if name == "spectra" else 0

        def wrapper(*args, _original=original, _name=name, _at=operand, **kwargs):
            calls.append((_name, np.array(args[_at])))
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


def _exchange_bases(n):
    """Orthonormal columns of the swap-symmetric and antisymmetric blocks of
    each total-parity sector on dims (n, n), in the documented order: the
    |kk>, then (|jk> +- |kj>)/sqrt 2 for j > k, built one vector at a time."""
    bases = []
    for parity in (0, 1):
        diag, sym, anti = [], [], []
        for j in range(n):
            for k in range(j + 1):
                if (j + k) % 2 != parity:
                    continue
                e, f = np.zeros((2, n * n))
                e[j * n + k] = f[k * n + j] = 1.0
                if j == k:
                    diag.append(e)
                else:
                    sym.append((e + f) / math.sqrt(2.0))
                    anti.append((e - f) / math.sqrt(2.0))
        bases += [np.array(diag + sym).T, np.array(anti).T]
    return bases


def _solves(calls, dims, operands):
    """Solves per (operand, kernel, block kind, block): every call larger than
    a marginal is attributed to the operand of the ``spectra`` call it runs
    in, which must be one of ``operands``, and its k-th such call there must
    be that operand's k-th exchange block (to rounding) or k-th parity block
    (exactly)."""
    parity = np.indices(dims).sum(axis=0).ravel() % 2
    bases = _exchange_bases(dims[0])
    counts = Counter()
    for name, a in calls:
        if name == "spectra":
            key = next((key for key, mat in operands.items() if np.array_equal(a, mat)), None)
            k = 0
            continue
        if a.shape[0] <= max(dims):
            continue
        re = hermitize(operands[key].real)
        exchange = bases[k].T @ re @ bases[k]
        sector = np.flatnonzero(parity == k) if k < 2 else np.zeros(0, int)
        if a.shape == exchange.shape and np.max(np.abs(a - exchange)) <= 1e-13 * np.max(
                np.abs(re)):
            counts[key, name, "exchange", k] += 1
        else:
            assert np.array_equal(a, re[np.ix_(sector, sector)]), (key, name, k)
            counts[key, name, "parity", k] += 1
        k += 1
    return counts


def _once(operand, kernel, nblocks=4):
    return {(operand, kernel, "exchange", k): 1 for k in range(nblocks)}


def test_sandwiched_decomposes_each_operand_once(monkeypatch):
    state = lossy_ecs(12)
    calls = _record_solves(monkeypatch)
    for alpha in ALPHAS:
        rho = FockState(state.dims, state.rho, validate=False)
        prod = marginal_product(rho)
        calls.clear()
        sandwiched_relative_entropy(rho, prod, alpha)
        operands = {"rho": rho.rho, "product": prod.rho}
        assert _solves(calls, state.dims, operands) == _once("rho", "eigh"), alpha


SIX_IDS = (("vn", None), ("renyi", 0.5), ("sandwiched", 1.5), ("bures", None),
           ("tr", None), ("hs", None))


def test_six_mi_ids_solve_each_operand_once(monkeypatch):
    # one solve of rho per exchange block, whose eigensystem the entropies
    # read too, one values-only solve of rho - rho_A x rho_B per block, and
    # none of the product itself
    state = lossy_ecs(30)
    prod = marginal_product(state)
    operands = {"rho": state.rho, "product": prod.rho, "difference": state.rho - prod.rho}
    assert len(spectra(state.dims, state.rho, vectors=False).sectors) == 2
    calls = _record_solves(monkeypatch)
    point = Point({}, lambda p: state)
    for kind, alpha in SIX_IDS:
        measure("mi", kind, alpha)(point)
    assert _solves(calls, state.dims, operands) == {
        **_once("rho", "eigh"), **_once("difference", "eigvalsh")}


def test_measure_state_csv_is_the_same_in_every_id_order():
    spec = StateSpec("ecs", {"gamma": 1.0}, cutoff=12, eta=0.7)
    ids = ("vn", "renyi:0.5", "sandwiched:1.5", "bures", "tr", "hs")

    def csv_lines(order):
        out = io.StringIO()
        write_csv(measure_rows(spec, order), out)
        header, *rows = out.getvalue().splitlines()
        return header, sorted(rows)

    want = csv_lines(ids)
    for order in itertools.permutations(ids):
        assert csv_lines(order) == want, order


#: States for the Kronecker spectrum of the marginal product: the lossy ECS,
#: the pure ECS (the 2 ln 2 anchor), and complex amplitudes whose complex
#: rho pairs with a product that is real up to rounding.
KRON_STATES = {
    "lossy_ecs_20": lambda: lossy_ecs(20),
    "lossy_ecs_30": lambda: lossy_ecs(30),
    "pure_ecs_20": lambda: lossy_ecs(20, eta=1.0),
    "lossy_complex_pnes": lossy_complex_pnes,
}


@pytest.mark.parametrize("name", list(KRON_STATES))
def test_kron_spectrum_matches_dense_solve_of_the_product(name):
    prod = marginal_product(KRON_STATES[name]())
    got = prod.spectrum()
    want = spectra(prod.dims, prod.rho)
    assert got.split == want.split
    assert got.vectors[0].dtype == want.vectors[0].dtype
    assert [s.tolist() for s in got.sectors] == [s.tolist() for s in want.sectors]
    tol = want.rank_floor()
    for idx, w, v, w_dense in zip(got.sectors, got.values, got.vectors, want.values):
        assert np.all(np.diff(w) >= 0.0)
        assert np.max(np.abs(w - w_dense)) <= tol
        assert np.max(np.abs((v * w) @ v.conj().T - prod.rho[np.ix_(idx, idx)])) <= tol
        assert np.max(np.abs(v.conj().T @ v - np.eye(idx.size))) <= 1e-13


@pytest.mark.parametrize("name", list(KRON_STATES))
def test_shared_product_matches_dense_oracle(name):
    state = KRON_STATES[name]()
    point = Point({}, lambda p: state)
    for kind, alpha in [("sandwiched", a) for a in ALPHAS] + [("bures", None), ("tr", None)]:
        got = measure("mi", kind, alpha)(point).value
        want = dense_mi(kind, state, alpha)
        assert got == pytest.approx(want, abs=_tolerance(name, kind, alpha)), (kind, alpha)
        if name == "pure_ecs_20" and kind == "sandwiched":
            assert got == pytest.approx(TWO_LN_2, abs=1e-6)
    # the complex rho takes its product's parity sectors, in complex blocks
    mixed = name == "lossy_complex_pnes"
    spec, prod = state.spectrum(), point.state.derive(marginal_product).spectrum()
    assert spec.split and prod.split
    assert (spec.vectors[0].dtype == np.complex128) is mixed


def _assert_exact_one_block(spec):
    block = spec.one_block()
    (full,), (w,) = block.vectors, block.values
    assert block.sectors[0].tolist() == list(range(full.shape[0]))
    assert np.array_equal(w, spec.eigenvalues())
    assert full.dtype == spec.vectors[0].dtype
    start = 0
    for idx, v in zip(spec.sectors, spec.vectors):
        cols = slice(start, start + idx.size)
        assert np.array_equal(full[idx, cols], v)
        assert not np.any(np.delete(full[:, cols], idx, axis=0))
        start += idx.size
    return full


def test_one_block_embedding_is_exact():
    _assert_exact_one_block(lossy_ecs(12).spectrum())


def test_one_block_of_a_complex_split_spectrum_keeps_its_imaginary_parts():
    spec = _phase_conjugated(lossy_ecs(12)).spectrum()
    assert spec.split and spec.vectors[0].dtype == np.complex128
    full = _assert_exact_one_block(spec)
    assert np.max(np.abs(full.imag)) > 0.1


def test_lossy_ecs_makes_no_complex_lapack_call(monkeypatch):
    """Structural guard: the sweep states take the real blocked route."""
    state = lossy_ecs(20)
    spec = spectra(state.dims, state.rho)
    assert spec.split and spec.vectors[0].dtype == np.float64
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, _original=original, _name=name, **kwargs):
            calls.append((_name, np.iscomplexobj(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    mutual_information("sandwiched", state, 1.5)
    assert {name for name, _ in calls} == {"eigh", "svd"}
    assert [name for name, is_complex in calls if is_complex] == []


def test_fig4_full_loss_ng_operand_takes_the_real_route():
    point = Point({"gamma": 1.0, "eta": 0.0}, lambda p: FIGURES["fig4"].state(p, None))
    rt, st = point.state.derive(averaged_states)
    diff = rt.rho - st.rho
    assert spectra(rt.dims, diff, vectors=False).split and diff.dtype == np.float64


# --- the exchange split against the paths it refines ---------------------------

def test_lossy_ecs_solves_four_exchange_blocks_and_lifts_them_exactly(monkeypatch):
    state = lossy_ecs(30)
    calls = _record_solves(monkeypatch)
    spec = spectra(state.dims, state.rho)
    sizes = [a.shape[0] for name, a in calls if name == "eigh"]
    assert len(sizes) == 4 and max(sizes) <= 240 and sum(sizes) == state.dim
    assert spec.split and spec.vectors[0].dtype == np.float64
    eps = np.finfo(float).eps
    rebuilt = 4 * state.dim * eps * np.linalg.norm(state.rho)
    for idx, w, v in zip(spec.sectors, spec.values, spec.vectors):
        assert np.all(np.diff(w) >= 0.0)
        assert np.max(np.abs(v.T @ v - np.eye(idx.size))) <= state.dim * eps
        assert np.linalg.norm((v * w) @ v.T - state.rho[np.ix_(idx, idx)]) <= rebuilt


def _random_real_parity_mixture(seed=20240817):
    """A criterion-8 random mixture made real and parity-diagonal, (rho + rho*)/2
    dephased in total parity: still a state, with no swap symmetry."""
    rho = random_two_mode_state(np.random.default_rng(seed), levels=3, cutoff=10).rho
    parity = np.indices((10, 10)).sum(axis=0).ravel() % 2
    return FockState((10, 10), rho.real * (parity[:, None] == parity[None, :]))


def _unequal_cutoffs():
    """The r = 0.4 TMSV on dims (12, 10), where the swap maps no basis state
    onto the basis."""
    k = np.arange(10)
    vec = np.zeros((12, 10))
    vec[k, k] = np.tanh(0.4) ** k
    return pure_state(vec.ravel(), (12, 10))


def _swap_anticommuting_perturbation(scale=10.0, seed=5):
    """The cutoff-12 lossy ECS plus a real, parity-preserving part H with
    S H S = -H (S the mode swap), of Frobenius norm scale * sqrt(d) eps ||rho||_F."""
    state = lossy_ecs(12)
    n = state.dims[0]
    parity = np.indices(state.dims).sum(axis=0).ravel() % 2
    swap = (np.arange(state.dim) % n) * n + np.arange(state.dim) // n
    h = np.random.default_rng(seed).normal(size=(state.dim, state.dim))
    h = (h + h.T) * (parity[:, None] == parity[None, :])
    h = h - h[np.ix_(swap, swap)]
    bound = math.sqrt(state.dim) * np.finfo(float).eps * np.linalg.norm(state.rho)
    return FockState(state.dims, state.rho + h * (scale * bound / np.linalg.norm(h)),
                     validate=False)


def test_drop_bound_decides_the_exchange_split(monkeypatch):
    calls = _record_solves(monkeypatch)
    for scale, sizes in ((0.9, [42, 30, 36, 36]), (1.1, [72, 72])):
        state = _swap_anticommuting_perturbation(scale)
        calls.clear()
        assert spectra(state.dims, state.rho).split
        assert [a.shape[0] for name, a in calls if name == "eigh"] == sizes, scale


PARITY_PATH = {
    "random_real_mixture": _random_real_parity_mixture,
    "unequal_cutoffs": _unequal_cutoffs,
    "swap_anticommuting": _swap_anticommuting_perturbation,
}


@pytest.mark.parametrize("name", list(PARITY_PATH))
def test_operands_without_exchange_symmetry_take_the_parity_path(name, monkeypatch):
    state = PARITY_PATH[name]()
    calls = _record_solves(monkeypatch)
    spec = spectra(state.dims, state.rho)
    solved = [a for kernel, a in calls if kernel == "eigh"]
    assert spec.split and len(spec.sectors) == len(solved) == 2
    assert spec.vectors[0].dtype == np.float64
    for idx, a in zip(spec.sectors, solved):
        assert np.array_equal(a, hermitize(state.rho[np.ix_(idx, idx)]))
    assert np.max(np.abs(np.sort(spec.eigenvalues()) - np.linalg.eigvalsh(state.rho))) <= TOL


COMPLEX_AMPLITUDES = {
    "coherent": lambda: make_state(StateSpec("coherent", {"gamma": 0.3 + 0.5j}, cutoff=12)),
    "coherent_pair": lambda: tensor(*2 * (make_state(
        StateSpec("coherent", {"gamma": 0.3 + 0.5j}, cutoff=12)),)),
}


@pytest.mark.parametrize("name", list(COMPLEX_AMPLITUDES))
def test_complex_amplitudes_take_one_complex_block(name, monkeypatch):
    # a state of both parities fails the parity split, complex or not
    state = COMPLEX_AMPLITUDES[name]()
    assert state.rho.dtype == np.complex128
    calls = _record_solves(monkeypatch)
    spec = spectra(state.dims, state.rho)
    (solved,) = [a for kernel, a in calls if kernel == "eigh"]
    assert not spec.split and spec.vectors[0].dtype == np.complex128
    assert np.array_equal(solved, hermitize(state.rho))


def _phase_conjugated(state, phases=(0.7, -1.3)):
    """U rho U^dag for the local phase unitary exp(i phi_1 n_1) (x) exp(i phi_2 n_2):
    a complex rho with the same total-parity sectors and the same measures,
    whose swap symmetry the two unequal phases break."""
    n = np.indices(state.dims).reshape(state.n_modes, -1)
    u = np.exp(1j * (np.asarray(phases)[:, None] * n).sum(axis=0))
    return FockState(state.dims, hermitize(u[:, None] * state.rho * u.conj()), validate=False)


#: Complex states that commute with total parity: complex amplitudes, and
#: real states conjugated by a local phase unitary.
COMPLEX_PARITY_SYMMETRIC = {
    "pnes": lambda: make_state(StateSpec(
        "pnes", {"coeffs": (0.6, 0.48j, 0.64 * np.exp(0.7j))}, cutoff=8)),
    "lossy_ecs": lambda: apply_loss(make_state(StateSpec(
        "ecs", {"gamma": 0.6 + 0.8j}, cutoff=12)), 0.7),
    "phased_lossy_ecs": lambda: _phase_conjugated(lossy_ecs(12)),
}


@pytest.mark.parametrize("name", list(COMPLEX_PARITY_SYMMETRIC))
def test_complex_parity_symmetric_states_take_complex_parity_blocks(name, monkeypatch):
    state = COMPLEX_PARITY_SYMMETRIC[name]()
    assert state.rho.dtype == np.complex128
    calls = _record_solves(monkeypatch)
    spec = spectra(state.dims, state.rho)
    solved = [a for kernel, a in calls if kernel == "eigh"]
    assert spec.split and all(v.dtype == np.complex128 for v in spec.vectors)
    assert all(np.iscomplexobj(a) for a in solved)
    # the exchange blocks of a swap-symmetric state, else the parity blocks
    if name == "phased_lossy_ecs":
        sizes = [idx.size for idx in spec.sectors]
    else:
        sizes = [basis.shape[1] for basis in _exchange_bases(state.dims[0])]
    assert [a.shape[0] for a in solved] == sizes
    want = np.linalg.eigvalsh(state.rho)
    assert np.max(np.abs(np.sort(spec.eigenvalues()) - want)) <= TOL
    for idx, w, v in zip(spec.sectors, spec.values, spec.vectors):
        assert np.max(np.abs((v * w) @ v.conj().T - state.rho[np.ix_(idx, idx)])) <= TOL


#: The real two-mode states of ``STATES``.
REAL_STATES = ("lossy_ecs_20", "lossy_ecs_30", "tmsv", "cv_werner")


@pytest.mark.parametrize("name", REAL_STATES)
def test_local_phase_conjugation_keeps_the_sectors_and_every_mi(name):
    state = STATES[name]()
    phased = _phase_conjugated(state)
    assert state.rho.dtype == np.float64 and phased.rho.dtype == np.complex128
    got, want = (spectra(s.dims, s.rho, vectors=False) for s in (phased, state))
    assert [s.tolist() for s in got.sectors] == [s.tolist() for s in want.sectors]
    for kind, alpha in MI_CASES:
        assert mutual_information(kind, phased, alpha).value == pytest.approx(
            mutual_information(kind, state, alpha).value, abs=TOL), (kind, alpha)


# --- the Gram spectrum of a state built from a few vectors -------------------

def _pure_tensor():
    """Two real single-mode cats: the thin Kronecker spectrum of two pure states."""
    return tensor(make_state(StateSpec("cat", {"gamma": 1.0}, cutoff=16)),
                  make_state(StateSpec("cat", {"gamma": 0.7, "sign": -1}, cutoff=14)))


#: States whose spectrum comes from their ``columns`` (or, for the tensor,
#: from its factors' columns): every builder that keeps them, at real and
#: complex amplitudes, and the lossy ECS at the transmittances where one of
#: its branches vanishes.
GRAM_STATES = {
    "pure_ecs": lambda: make_state(StateSpec("ecs", {"gamma": 1.0}, cutoff=20)),
    "tmsv": lambda: make_state(StateSpec("tmsv", {"r": 0.6}, cutoff=24)),
    "complex_pnes": COMPLEX_PARITY_SYMMETRIC["pnes"],
    "lossy_ecs": lambda: ecs_loss_analytic(1.0, 0.7, 20),
    "lossy_ecs_eta0": lambda: ecs_loss_analytic(1.0, 0.0, 20),
    "lossy_ecs_eta1": lambda: ecs_loss_analytic(1.0, 1.0, 20),
    # a Bell-branch weight of about 4e-16, positive and below the rank floor
    "lossy_ecs_eta_tiny": lambda: ecs_loss_analytic(1.0, 1e-16, 20),
    "lossy_ecs_complex": lambda: ecs_loss_analytic(0.3 + 0.5j, 0.6, 20),
    "lossy_ecs_complex_eta0": lambda: ecs_loss_analytic(0.3 + 0.5j, 0.0, 20),
    "lossy_ecs_complex_eta1": lambda: ecs_loss_analytic(0.3 + 0.5j, 1.0, 20),
    # a real rho from complex branch vectors, one phase i^n per parity
    "lossy_ecs_imaginary": lambda: ecs_loss_analytic(-0.8j, 0.6, 20),
    "lossy_ecs_imaginary_eta1": lambda: ecs_loss_analytic(-0.8j, 1.0, 20),
    "cv_werner": lambda: make_state(StateSpec("cv_werner", {"f": 0.6, "r": 0.2}, cutoff=12)),
    "cv_werner_30": lambda: make_state(StateSpec("cv_werner", {"f": 0.5, "r": 0.6}, cutoff=30)),
    "pure_tensor": _pure_tensor,
    # a real vector with both parities fails the parity split: one block
    "real_mixed_parity": lambda: pure_state(
        np.kron(coherent_amps(0.8, 12), coherent_amps(-0.5, 12)), (12, 12)),
}


@pytest.mark.parametrize("name", list(GRAM_STATES))
def test_gram_spectrum_matches_the_dense_solve(name, monkeypatch):
    state = GRAM_STATES[name]()
    rank = sum(f.columns.shape[1] for f in state.factors or (state,))
    calls = _record_solves(monkeypatch)
    got = state.spectrum()
    # no solve larger than the number of vectors, and no d x d one
    assert calls and all(a.shape[0] <= rank for _, a in calls)
    monkeypatch.undo()
    want = spectra(state.dims, state.rho)
    # the parity split is the dense solve's, whatever the columns' dtype;
    # the vectors keep that dtype
    assert got.split == want.split == (name != "real_mixed_parity")
    columns = np.result_type(*(f.columns for f in state.factors or (state,)))
    assert all(v.dtype == columns for v in got.vectors)
    assert [s.tolist() for s in got.sectors] == [s.tolist() for s in want.sectors]
    eps = np.finfo(float).eps
    w_max = float(np.max(want.eigenvalues()))
    floor = want.rank_floor()
    assert got.rank_floor() == pytest.approx(floor, rel=1e-12, abs=0.0)
    for idx, w, v, w_dense in zip(got.sectors, got.values, got.vectors, want.values):
        kept = w_dense[w_dense > floor]
        assert v.shape == (idx.size, w.size) and w.size == kept.size
        assert np.all(np.diff(w) >= 0.0) and np.all(w > got.rank_floor())
        assert np.max(np.abs(w - kept), initial=0.0) <= 4 * state.dim * eps * w_max
        assert np.max(np.abs(v.conj().T @ v - np.eye(w.size)), initial=0.0) <= state.dim * eps
        rebuilt = (v * w) @ v.conj().T
        assert np.linalg.norm(rebuilt - state.rho[np.ix_(idx, idx)]) <= (
            4 * state.dim * eps * np.linalg.norm(state.rho))


@pytest.mark.parametrize("name", list(GRAM_STATES))
def test_thin_spectra_give_the_dense_measures(name):
    state = GRAM_STATES[name]()
    if state.n_modes != 2:
        return
    dense = FockState(state.dims, state.rho, validate=False)
    for kind, alpha in MI_CASES:
        got = mutual_information(kind, state, alpha).value
        want = mutual_information(kind, dense, alpha).value
        if kind == "bures":
            # sqrt(2 (1 - sqrt F)) lifts rounding in F to its square root:
            # 1.5e-8 on the dense product of two pure states, 0 on the thin one
            got, want = got**2, want**2
        assert got == pytest.approx(want, abs=TOL), (kind, alpha)
    assert fidelity(state, dense) == pytest.approx(1.0, abs=TOL)


def test_rank_floor_is_unchanged_on_square_spectra():
    state = lossy_ecs(12)
    prod = marginal_product(state)
    for spec in (state.spectrum(), prod.spectrum(), state.spectrum().one_block(),
                 spectra(state.dims, state.rho - prod.rho, vectors=False)):
        w = spec.eigenvalues()
        assert spec.rank_floor() == float(np.max(w)) * w.size * np.finfo(float).eps


def test_thin_one_block_and_kron_spectrum_place_one_column_per_value():
    thin = make_state(StateSpec("ecs", {"gamma": 1.0}, cutoff=12)).spectrum()
    assert [w.size for w in thin.values] == [0, 1]
    block = thin.one_block()
    ((vecs,), (w,)) = block.vectors, block.values
    assert vecs.shape == (144, 1) and w.tolist() == thin.eigenvalues().tolist()
    assert np.array_equal(vecs[thin.sectors[1], 0], thin.vectors[1][:, 0])
    prod = _pure_tensor().spectrum()
    assert [v.shape[1] for v in prod.vectors] == [w.size for w in prod.values] == [0, 1]


def test_thin_spectrum_and_columns_are_read_only():
    state = ecs_loss_analytic(1.0, 0.7, 12)
    for arr in (state.columns, *state.spectrum().values, *state.spectrum().vectors):
        assert not arr.flags.writeable


def _pure_sigma_pair(leak):
    """(rho, sigma): sigma the pure r = 0.3 TMSV at cutoff 10, kept as its
    column, and rho = (1 - leak) sigma + leak |01><01|, whose mass outside
    supp(sigma) is ``leak``."""
    sigma = make_state(StateSpec("tmsv", {"r": 0.3}, cutoff=10))
    out = np.zeros(100)
    out[1] = 1.0
    rho = (1.0 - leak) * sigma.rho + leak * np.outer(out, out)
    return FockState(sigma.dims, rho), sigma


def _pure_sigma_divergence(leak, alpha):
    """D_alpha of ``_pure_sigma_pair``, sigma^b taken on its support:
    alpha/(alpha - 1) ln(1 - leak), and at alpha = 1 minus the entropy of rho."""
    if alpha == 1.0:
        return sum(p * math.log(p) for p in (1.0 - leak, leak) if p > 0.0)
    return alpha / (alpha - 1.0) * math.log1p(-leak)


@pytest.mark.parametrize("leak", [0.0, 0.1 * SUPPORT_LEAK_TOL, 10.0 * SUPPORT_LEAK_TOL, 0.3])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_support_verdicts_with_a_pure_sigma(leak, alpha):
    # the thin sigma keeps one eigenvector: the leak is what its support
    # keeps short of rho's mass, and the verdict is the full sigma's.  The
    # dense complex oracle is no reference here: sigma's rounding-level
    # eigenvalues, raised to a negative power, meet rho's leaked mass
    rho, sigma = _pure_sigma_pair(leak)
    assert [w.size for w in sigma.spectrum().values] == [1, 0]
    full = FockState(sigma.dims, sigma.rho, validate=False)
    got = sandwiched_relative_entropy(rho, sigma, alpha)
    want = sandwiched_relative_entropy(rho, full, alpha)
    infinite = alpha >= 1.0 and leak > SUPPORT_LEAK_TOL
    assert math.isinf(got) is math.isinf(want) is infinite
    if not infinite:
        assert got == pytest.approx(want, abs=TOL)
        assert got == pytest.approx(_pure_sigma_divergence(leak, alpha), abs=TOL)
