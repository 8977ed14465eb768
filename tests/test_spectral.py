"""The parity-blocked real eigensolves of ``fock.spectra`` against the dense
complex path they replace.

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

from ngcorr.channels import apply_loss
from ngcorr.cli import measure_rows, write_csv
from ngcorr.distill import DistillConfig, _projected_bs, distill
from ngcorr.entanglement import log_negativity_fock
from ngcorr.figures import FIGURES, Point, measure
from ngcorr.fock import (
    EIG_SUPPORT_FLOOR,
    FockState,
    distance,
    fidelity,
    hermitize,
    paired,
    partial_trace,
    partial_transpose,
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


def dense_entropy(state, alpha):
    w = np.linalg.eigvalsh(_dense(state.rho))
    w = w[w > EIG_SUPPORT_FLOOR]
    if alpha == 1.0:
        return float(-np.sum(w * np.log(w)))
    return float(math.log(np.sum(w**alpha)) / (1.0 - alpha))


def dense_sandwiched(rho, sigma, alpha):
    if alpha >= 1.0:
        ws, vs = np.linalg.eigh(_dense(sigma.rho))
        off = vs[:, ws <= EIG_SUPPORT_FLOOR]
        leak = float(np.real(np.sum(off.conj() * (rho.rho @ off))))
        if leak > SUPPORT_LEAK_TOL:
            return math.inf
    if alpha == 1.0:
        on = ws > EIG_SUPPORT_FLOOR
        log_sigma = (vs[:, on] * np.log(ws[on])) @ vs[:, on].conj().T
        wr = np.linalg.eigvalsh(_dense(rho.rho))
        wr = wr[wr > EIG_SUPPORT_FLOOR]
        tr_rho_log_sigma = float(np.real(np.sum(rho.rho * log_sigma.T)))
        return float(np.sum(wr * np.log(wr))) - tr_rho_log_sigma
    b = (1.0 - alpha) / (2.0 * alpha)
    pw, pu = np.linalg.eigh(_dense(rho.rho))
    keep_p = pw > float(pw[-1]) * pw.size * np.finfo(float).eps
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
    eps = np.finfo(float).eps
    wa, va = np.linalg.eigh(_dense(a.rho))
    ka = wa > float(wa[-1]) * wa.size * eps
    wb, vb = np.linalg.eigh(_dense(b.rho))
    kb = wb > float(wb[-1]) * wb.size * eps
    cross = (vb[:, kb].conj().T @ va[:, ka]) * np.sqrt(wa[ka])[None, :]
    cross = np.sqrt(wb[kb])[:, None] * cross
    return float(np.sum(np.linalg.svd(cross, compute_uv=False)) ** 2)


def dense_mi(kind, state, alpha=None):
    prod = marginal_product(state)
    if kind in ("vn", "renyi"):
        alpha = 1.0 if kind == "vn" else alpha
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

#: Whether spectra may split each state into two real parity sectors.
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
    assert spec.real is PARITY_BLOCKED[name]
    assert len(spec.sectors) == (2 if PARITY_BLOCKED[name] else 1)
    assert sorted(np.concatenate(spec.sectors)) == list(range(state.dim))


@pytest.mark.parametrize("name", list(STATES))
def test_mutual_information_matches_dense_oracle(name):
    state = STATES[name]()
    for kind, alpha in MI_CASES:
        got = mutual_information(kind, state, alpha).value
        want = dense_mi(kind, state, alpha)
        assert got == pytest.approx(want, abs=_tolerance(name, kind, alpha)), (kind, alpha)


@pytest.mark.parametrize("gamma", (0.5, 1.0, 1.5))
def test_pure_ecs_anchor_matches_dense_oracle(gamma):
    state = make_state(StateSpec("ecs", {"gamma": gamma}, cutoff=30))
    spec = spectra(state.dims, state.rho, vectors=False)
    assert spec.real and len(spec.sectors) == 2
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
def test_log_negativity_matches_dense_oracle(name):
    state = STATES[name]()
    assert log_negativity_fock(state, tail_tol=1.0) == pytest.approx(
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
    assert below.real and len(below.sectors) == 2
    above = spectra(state.dims, _off_parity_perturbation(state, 1.1).rho)
    assert not above.real and len(above.sectors) == 1
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
    """Operands of every numpy.linalg eigh and eigvalsh call, in call order."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, _original=original, _name=name, **kwargs):
            calls.append((_name, np.array(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    return calls


def _solves(calls, sectors, dims, operands):
    """Full-size solves per (operand, kernel), in sector calls: every call
    larger than a marginal must be a parity block of exactly one operand."""
    counts = Counter()
    for name, a in calls:
        if a.shape[0] <= max(dims):
            continue
        (match,) = [key for key, mat in operands.items()
                    if any(np.array_equal(a, hermitize(mat.real[np.ix_(s, s)]))
                           for s in sectors)]
        counts[match, name] += 1
    return counts


def test_sandwiched_decomposes_each_operand_once(monkeypatch):
    state = lossy_ecs(12)
    sectors = spectra(state.dims, state.rho, vectors=False).sectors
    calls = _record_solves(monkeypatch)
    for alpha in ALPHAS:
        rho = FockState(state.dims, state.rho, validate=False)
        prod = marginal_product(rho)
        calls.clear()
        sandwiched_relative_entropy(rho, prod, alpha)
        operands = {"rho": rho.rho, "product": prod.rho}
        solves = _solves(calls, sectors, state.dims, operands)
        assert solves == {("rho", "eigh"): len(sectors)}, alpha


SIX_IDS = (("vn", None), ("renyi", 0.5), ("sandwiched", 1.5), ("bures", None),
           ("tr", None), ("hs", None))


def test_six_mi_ids_solve_each_operand_once(monkeypatch):
    # one solve of rho, whose eigensystem the entropies read too, one
    # values-only solve of rho - rho_A x rho_B, and none of the product itself
    state = lossy_ecs(30)
    prod = marginal_product(state)
    operands = {"rho": state.rho, "product": prod.rho, "difference": state.rho - prod.rho}
    sectors = spectra(state.dims, state.rho, vectors=False).sectors
    nsec = len(sectors)
    assert nsec == 2
    calls = _record_solves(monkeypatch)
    point = Point({}, lambda p: state)
    for kind, alpha in SIX_IDS:
        measure("mi", kind, alpha)(point)
    assert _solves(calls, sectors, state.dims, operands) == {
        ("rho", "eigh"): nsec, ("difference", "eigvalsh"): nsec}


def test_measure_state_csv_is_the_same_in_every_id_order():
    spec = StateSpec("ecs", {"gamma": 1.0}, cutoff=12)
    ids = ("vn", "renyi:0.5", "sandwiched:1.5", "bures", "tr", "hs")

    def csv_lines(order):
        out = io.StringIO()
        write_csv(measure_rows(spec, 0.7, order), out)
        header, *rows = out.getvalue().splitlines()
        return header, sorted(rows)

    want = csv_lines(ids)
    for order in itertools.permutations(ids):
        assert csv_lines(order) == want, order


#: States for the Kronecker spectrum of the marginal product: the lossy ECS,
#: the pure ECS (the 2 ln 2 anchor), and complex amplitudes whose complex
#: rho pairs with a real product.
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
    assert got.real == want.real
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
    mixed = name == "lossy_complex_pnes"
    assert state.spectrum().real is not mixed and (
        point.state.derive(marginal_product).spectrum().real)


def test_one_block_embedding_is_exact():
    spec = lossy_ecs(12).spectrum()
    block = spec.one_block()
    (full,), (w,) = block.vectors, block.values
    assert block.sectors[0].tolist() == list(range(full.shape[0]))
    assert np.array_equal(w, spec.eigenvalues())
    start = 0
    for idx, v in zip(spec.sectors, spec.vectors):
        cols = slice(start, start + idx.size)
        assert np.array_equal(full[idx, cols], v)
        assert not np.any(np.delete(full[:, cols], idx, axis=0))
        start += idx.size


def test_lossy_ecs_makes_no_complex_lapack_call(monkeypatch):
    """Structural guard: the sweep states take the real blocked route."""
    state = lossy_ecs(20)
    spec = spectra(state.dims, state.rho)
    assert spec.real and len(spec.sectors) == 2
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
    spec = spectra(rt.dims, rt.rho - st.rho, vectors=False)
    assert spec.real
