import math

import numpy as np
import pytest

from ngcorr.channels import apply_loss
from ngcorr.cli import measure_rows
from ngcorr.fock import fidelity, tensor
from ngcorr.measures import (
    averaged_states,
    delta_ng,
    marginal_product,
    mutual_information,
    ng_correlation,
    sandwiched_relative_entropy,
)
from ngcorr.states import StateSpec, make_state
from oracles import CaseNotApplicable, ng_lb2_fast, superfidelity_chain
from sampling import random_two_mode_state

TWO_LN_2 = 2.0 * math.log(2.0)


def test_relative_entropy_self_zero():
    st = make_state(StateSpec("cv_werner", {"f": 0.4, "r": 0.15}, cutoff=10))
    for alpha in (0.5, 1.0, 1.7):
        v = sandwiched_relative_entropy(st, st, alpha)
        assert math.isfinite(v)
        assert abs(v) < 1e-10


def test_relative_entropy_commuting_thermals():
    n1, n2 = 0.3, 0.8
    a = make_state(StateSpec("thermal", {"nbar": n1}, cutoff=60))
    b = make_state(StateSpec("thermal", {"nbar": n2}, cutoff=60))
    p = np.real(np.diagonal(a.rho))
    q = np.real(np.diagonal(b.rho))
    for alpha in (0.5, 1.0, 1.5, 2.0):
        v = sandwiched_relative_entropy(a, b, alpha)
        assert math.isfinite(v)
        if alpha == 1.0:
            ref = float(np.sum(p * (np.log(p) - np.log(q))))
        else:
            ref = float(
                math.log(np.sum(p**alpha * q ** (1.0 - alpha))) / (alpha - 1.0)
            )
        assert v == pytest.approx(ref, abs=1e-10)


def test_relative_entropy_half_order_is_log_fidelity():
    for spec in (
        StateSpec("ecs", {"gamma": 1.0}, cutoff=24),
        StateSpec("cv_werner", {"f": 0.6, "r": 0.2}, cutoff=12),
    ):
        st = make_state(spec)
        prod = marginal_product(st)
        v = sandwiched_relative_entropy(st, prod, 0.5)
        assert v == pytest.approx(-math.log(fidelity(st, prod)), abs=1e-9)


def test_support_mismatch_infinite():
    vac = make_state(StateSpec("vacuum", {"modes": 1}, cutoff=4))
    one = np.zeros(4, dtype=complex)
    one[1] = 1.0
    from ngcorr.fock import pure_state

    excited = pure_state(one, (4,))
    v = sandwiched_relative_entropy(excited, vac, 1.5)
    assert v == math.inf


def test_mutual_information_product_zero():
    # cutoff 20 keeps the thermal tail below the 1e-8 assertion scale
    a = make_state(StateSpec("coherent", {"gamma": 0.6}, cutoff=20))
    b = make_state(StateSpec("thermal", {"nbar": 0.4}, cutoff=20))
    st = tensor(a, b)
    for kind, alpha in (
        ("vn", None),
        ("renyi", 0.5),
        ("renyi", 2.0),
        ("sandwiched", 0.5),
        ("sandwiched", 1.5),
        ("hs", None),
        ("tr", None),
        ("bures", None),
    ):
        assert abs(mutual_information(kind, st, alpha).value) < 1e-8


def test_renyi_limits_bracket_vn():
    st = make_state(StateSpec("cv_werner", {"f": 0.5, "r": 0.2}, cutoff=10))
    vn = mutual_information("vn", st).value
    for kind in ("renyi", "sandwiched"):
        lo = mutual_information(kind, st, 1.0 - 1e-4).value
        hi = mutual_information(kind, st, 1.0 + 1e-4).value
        assert lo == pytest.approx(vn, abs=1e-3)
        assert hi == pytest.approx(vn, abs=1e-3)


def test_bell_anchor_single_point():
    st = make_state(StateSpec("ecs", {"gamma": 1.0}, cutoff=30))
    assert mutual_information("renyi", st, 2.0).value == pytest.approx(
        TWO_LN_2, abs=1e-9
    )


def test_delta_ng_gaussian_state_zero():
    st = make_state(StateSpec("tmsv", {"r": 0.3}, cutoff=25))
    for kind, alpha, tol in (
        ("vn", None, 1e-6),
        ("renyi", 0.7, 1e-5),
        ("renyi", 2.0, 1e-8),
        ("sandwiched", 1.5, 1e-6),
        ("hs", None, 1e-8),
        ("tr", None, 1e-5),
        ("bures", None, 1e-4),
    ):
        assert abs(delta_ng(kind, st, alpha).value) < tol


def test_averaged_states_are_states():
    st = apply_loss(make_state(StateSpec("ecs", {"gamma": 0.8}, cutoff=22)), 0.7)
    rt, st_ = averaged_states(st)
    for s in (rt, st_):
        assert np.trace(s.rho).real == pytest.approx(1.0, abs=1e-9)
        w = np.linalg.eigvalsh(s.rho)
        assert w[0] > -1e-9


def test_ng_kind_ordering():
    # lb1 >= lb2 is AM-GM on the same three traces, so it holds to rounding,
    # also on the TMSV, whose bounds are both noise about 0 at its cutoff 8
    for st in (apply_loss(make_state(StateSpec("ecs", {"gamma": 1.0}, cutoff=20)), 0.6),
               make_state(StateSpec("tmsv", {"r": 0.3})),
               make_state(StateSpec("cv_werner", {"f": 0.4, "r": 0.2}, cutoff=12))):
        fid_v = ng_correlation("fid", st).value
        lb1 = ng_correlation("lb1", st).value
        lb2 = ng_correlation("lb2", st).value
        assert fid_v >= lb1 - 1e-9
        assert lb1 >= lb2 - 1e-15


def test_lb2_fast_product_reference_case():
    coeffs = (math.sqrt(0.7), 0.0, math.sqrt(0.3))
    st = make_state(StateSpec("pnes", {"coeffs": coeffs}, cutoff=8))
    fast = ng_lb2_fast("product_reference", st).value
    full = ng_correlation("lb2", st).value
    assert fast == pytest.approx(full, abs=1e-7)


def test_lb2_fast_rejects_correlated_reference():
    st = make_state(StateSpec("tmsv", {"r": 0.3}, cutoff=20))
    with pytest.raises(CaseNotApplicable):
        ng_lb2_fast("product_reference", st)


def test_lb2_fast_local_gaussian_case():
    st = make_state(StateSpec("photon_correlated", {"nbar": 0.5}, cutoff=25))
    fast = ng_lb2_fast("local_gaussian", st).value
    full = ng_correlation("lb2", st).value
    assert fast == pytest.approx(full, abs=1e-6)


def test_superfidelity_chain_order(rng):
    for _ in range(10):
        a = random_two_mode_state(rng, levels=3, cutoff=6)
        b = random_two_mode_state(rng, levels=3, cutoff=6)
        f, g, h = superfidelity_chain(a, b)
        assert f <= g + 1e-10
        assert g <= h + 1e-10


def test_pnes_has_no_gaussian_correlation():
    # covariance matrix is that of an uncorrelated thermal pair, so the
    # reference mutual information vanishes and delta equals the target
    coeffs = (math.sqrt(0.7), 0.0, math.sqrt(0.3))
    st = make_state(StateSpec("pnes", {"coeffs": coeffs}, cutoff=8))
    from ngcorr.gaussian import moments_from_fock

    spec = moments_from_fock(st)
    assert np.max(np.abs(spec.cm[:2, 2:])) < 1e-10
    d = delta_ng("hs", st)
    t = mutual_information("hs", st)
    assert d.value == pytest.approx(t.value, abs=1e-9)


@pytest.mark.parametrize("spec", (
    StateSpec("tmsv", {"r": 0.3}, cutoff=30),
    StateSpec("photon_correlated", {"nbar": 0.5}, cutoff=20),
    StateSpec("cv_werner", {"f": 0.4, "r": 0.2}, cutoff=12),
), ids=lambda s: s.family)
def test_order_one_sandwiched_row_is_the_von_neumann_row(spec):
    # D(rho || rho_A x rho_B) = I(A:B): the order-1 row reads the entropies,
    # where a support cut on sigma's small eigenvalues would truncate tr rho log sigma
    vn, sandwiched = measure_rows(spec, None, ["vn", "sandwiched:1"])
    assert sandwiched["status"] == vn["status"] == "ok"
    assert sandwiched["value"] == vn["value"]


def test_a_product_reference_leaves_the_bures_row_as_its_delta():
    # photon-number correlations only: the moments are those of a thermal
    # pair, whose closed-form Bures value is exactly 0; the Fock value of
    # the synthesized product reference is 7.8e-7 at this cutoff
    spec = StateSpec("photon_correlated", {"nbar": 0.5}, cutoff=20)
    bures, delta = measure_rows(spec, None, ["bures", "delta:bures"])
    assert bures["status"] == delta["status"] == "ok"
    assert abs(delta["value"] - bures["value"]) <= 1e-15
