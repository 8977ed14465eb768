"""Tests of the benchmark's oracles and checkers.

    python3 -m pytest perfbench/test_perfbench.py

They need numpy and scipy; none of them imports ngcorr.
"""

import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TWO_LN_2 = 2.0 * math.log(2.0)
ORDERS = (0.3, 0.5, 0.9, 1.5, 2.0, 3.0)


@pytest.mark.parametrize("gamma", [0.4, 1.0, 1.5])
def test_lossless_state_is_maximally_correlated(gamma):
    for alpha in ORDERS:
        assert oracle.mutual_information("renyi", gamma, 1.0, alpha) == pytest.approx(TWO_LN_2, abs=1e-12)
        assert oracle.mutual_information("sandwiched", gamma, 1.0, alpha) == pytest.approx(TWO_LN_2, abs=1e-12)
    assert oracle.mutual_information("vn", gamma, 1.0) == pytest.approx(TWO_LN_2, abs=1e-12)
    assert oracle.entanglement_of_formation(gamma, 1.0) == pytest.approx(math.log(2.0), abs=1e-12)


MEASURES = [("vn", None), ("hs", None), ("tr", None), ("bures", None)] + [
    (kind, alpha) for kind in ("renyi", "sandwiched") for alpha in ORDERS]


@pytest.mark.parametrize("kind,alpha", MEASURES)
def test_full_loss_leaves_no_correlation(kind, alpha):
    assert abs(oracle.mutual_information(kind, 1.0, 0.0, alpha)) < 1e-12
    # and the limit eta -> 0 approaches it (as a power of eta, slowly for
    # Bures and for Renyi orders below 1)
    values = [oracle.mutual_information(kind, 1.0, eta, alpha) for eta in (1e-3, 1e-6, 1e-9)]
    assert values[0] > values[1] > abs(values[2])
    assert abs(values[2]) < 1e-2


def test_full_loss_leaves_no_entanglement_or_delta():
    assert oracle.entanglement_of_formation(1.0, 0.0) == 0.0
    assert abs(oracle.delta_vn(1.0, 0.0)) < 1e-15
    assert oracle.entanglement_of_formation(1.0, 1e-9) < 1e-12


@pytest.mark.parametrize("gamma,eta", [(0.3, 0.2), (1.0, 0.7), (1.4, 0.95)])
def test_model_is_a_state_and_its_spectrum(gamma, eta):
    rho = oracle.density(gamma, eta)
    w = np.linalg.eigvalsh(rho)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)
    assert w.min() > -1e-15
    assert np.sort(w)[-2:] == pytest.approx(np.sort(oracle.lossy_ecs(gamma, eta)[0]), abs=1e-14)
    # the closed-form X-state concurrence is Wootters' general formula
    assert oracle.concurrence(gamma, eta) == pytest.approx(
        oracle.wootters_concurrence(rho), abs=1e-7)


def test_sandwiched_order_one_is_von_neumann():
    vn = oracle.mutual_information("vn", 1.0, 0.7)
    near = oracle.mutual_information("sandwiched", 1.0, 0.7, 1.0 + 1e-6)
    assert near == pytest.approx(vn, abs=1e-5)


def test_gaussian_reference_of_product_vacuum_is_zero():
    assert oracle.gaussian_vn_mi(1.0, 0.0) == 0.0
    assert oracle.gaussian_vn_mi(1.0, 0.5) > 0.0


def _fig4_csv(stop, grid=5):
    lines = [",".join(("figure", "gamma", "alpha", "eta", "f", "r", "x", "seed",
                       "measure", "value", "cutoff", "tail_mass", "status"))]
    for eta in checks.fig4_etas(stop, grid):
        dvn = oracle.delta_vn(1.0, eta)
        tr = 0.5 * eta  # monotone stand-ins for the Fock-only measures
        for measure, value in (("ng_tr", tr), ("ng_lb1", 0.1 * tr),
                               ("ng_lb2", 0.09 * tr), ("delta_vn", dvn)):
            lines.append(f"fig4,1,,{eta!r},,,,,{measure},{value!r},20,0,ok")
    return "\n".join(lines) + "\n"


def _fig5_csv(seed, samples):
    lines = ["figure,gamma,alpha,eta,f,r,x,seed,measure,value,cutoff,tail_mass,status"]
    for g, eta in checks.fig5_draws(seed, samples):
        ef = oracle.entanglement_of_formation(g, eta)
        for measure, value in (("delta_ef", ef), ("ng_lb1", 0.1 * ef)):
            lines.append(f"fig5,{g!r},,{eta!r},,,,{seed},{measure},{value!r},14,0,ok")
    return "\n".join(lines) + "\n"


def _measure_csv(ids, gamma, eta):
    lines = ["figure,gamma,alpha,eta,f,r,x,seed,measure,value,cutoff,tail_mass,status"]
    for mid in ids:
        value = oracle.measure_id(mid, gamma, eta)
        lines.append(f"measure_state,{gamma!r},,{eta!r},,,,,{mid},{value!r},30,0,ok")
    return "\n".join(lines) + "\n"


def _move(text, line, delta):
    rows = text.splitlines()
    cells = rows[line].split(",")
    cells[9] = repr(float(cells[9]) + delta)
    rows[line] = ",".join(cells)
    return "\n".join(rows) + "\n"


def test_fig4_checker_accepts_oracle_and_rejects_a_moved_value():
    text = _fig4_csv(0.95)
    assert checks.check_fig4(text, 0.95, 5) == (20, 0, [])
    # last line: delta_vn at the top of the grid; line 2: ng_lb1 at eta = 0
    for line in (20, 2):
        rows, failed, problems = checks.check_fig4(_move(text, line, 1e-6), 0.95, 5)
        assert problems, line


def test_fig4_checker_rejects_a_monotone_delta_vn():
    text = _fig4_csv(0.38)  # delta_vn rises monotonically up to eta ~ 0.4
    assert any("monotone" in p for p in checks.check_fig4(text, 0.38, 5)[2])


def test_fig5_checker_rejects_a_moved_value():
    text = _fig5_csv(3, 12)
    assert checks.check_fig5(text, 3, 12) == (24, 0, [])
    # line 5: delta_ef of sample 2
    assert checks.check_fig5(_move(text, 5, 1e-6), 3, 12)[2]


def test_fig5_checker_counts_a_precision_miss_as_failed():
    text = _fig5_csv(3, 12)
    rows, failed, problems = checks.check_fig5(_move(text, 5, 5e-9), 3, 12)
    assert (rows, failed, problems) == (24, 1, [])


def test_fig5_checker_rejects_other_inputs():
    assert checks.check_fig5(_fig5_csv(4, 12), 3, 12)[2]


def test_measure_checker_rejects_each_moved_value():
    ids = ["vn", "renyi:0.5", "sandwiched:1.5", "bures", "tr", "hs"]
    text = _measure_csv(ids, 1.0, 0.7)
    assert checks.check_measure(text, ids, 1.0, 0.7) == (6, 0, [])
    for line in range(1, len(ids) + 1):
        assert checks.check_measure(_move(text, line, 1e-6), ids, 1.0, 0.7)[2]


def test_benchmark_json_matches_what_runs_report():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.metric_units()


def test_self_time_subtracts_children():
    spans = [
        {"id": 1, "name": "measures.ng_correlation", "start": 0.0, "end": 1.0, "parent": None},
        {"id": 2, "name": "numpy.linalg.eigh", "start": 0.1, "end": 0.4, "parent": 1,
         "n3": 8, "complex": True},
        {"id": 3, "name": "numpy.linalg.svd", "start": 0.5, "end": 0.6, "parent": 1,
         "n3": 27, "complex": False},
    ]
    out = tracer.aggregate(spans)
    assert out["measures.ng_correlation.self_s"] == pytest.approx(0.6)
    assert out["numpy.linalg.eigh.self_s"] == pytest.approx(0.3)
    assert out["numpy.linalg.n3_g"] == pytest.approx(35e-9)
    assert out["numpy.linalg.complex_calls"] == 1
    assert out["fock.distance.calls"] == 0
