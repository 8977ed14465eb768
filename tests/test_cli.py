import dataclasses
import io
import math
import os
import subprocess
import sys
import threading

import pytest

from ngcorr.cli import (
    _parse_measure_id,
    build_parser,
    main,
    measure_rows,
    parse_state_file,
    write_csv,
)
import ngcorr.blas
import ngcorr.cli
import ngcorr.figures
import ngcorr.measures
import numpy as np

from ngcorr.channels import apply_loss, ecs_loss_analytic
from ngcorr.entanglement import eof_two_qubit
from ngcorr.errors import BadSpec, ConvergenceFailure
from ngcorr.fock import tensor, truncate_state
from ngcorr.figures import (
    COLUMNS,
    FIGURES,
    Point,
    _lossy_delta,
    default_threads,
    measure,
    run_figure,
    sweep,
)
from ngcorr.gaussian import (
    CLOSED_FORM_KINDS,
    ORDERED_KINDS,
    gaussian_log_negativity,
    moments_from_fock,
)
from ngcorr.measures import delta_ng, ng_correlation
from ngcorr.states import StateSpec, default_cutoff, make_state
from ngcorr.xstate import ecs_to_xstate
from oracles import (
    dense_sampled_lossy_ecs,
    kraus_lossy_ecs,
    spin_flip_concurrence,
    wootters_eof,
)


def test_parse_range_flag():
    parser = build_parser()
    args = parser.parse_args(["run_figure", "fig3", "--eta", "0:1:11"])
    assert args.eta == (0.0, 1.0, 11)


def test_bad_range_rejected():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run_figure", "fig3", "--eta", "0..1"])


def test_measure_id_grammar():
    assert _parse_measure_id("renyi:2") == ("mi", "renyi", 2.0)
    assert _parse_measure_id("delta:hs") == ("delta", "hs", None)
    assert _parse_measure_id("ng:tr") == ("ng", "tr", None)
    assert _parse_measure_id("delta:sandwiched:1.5") == ("delta", "sandwiched", 1.5)
    with pytest.raises(BadSpec):
        _parse_measure_id("ng:nope")
    with pytest.raises(BadSpec):
        _parse_measure_id("wigner")


def test_state_file_parsing(tmp_path):
    path = tmp_path / "state.spec"
    path.write_text("# demo\nfamily = ecs\ngamma = 1.0\ncutoff = 30\n")
    spec, loss_eta = parse_state_file(str(path))
    assert spec.family == "ecs"
    assert spec.cutoff == 30
    assert loss_eta is None


def test_state_file_missing_family(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text("gamma = 1.0\n")
    with pytest.raises(BadSpec):
        parse_state_file(str(path))


def test_measure_rows_bell_anchor(tmp_path):
    path = tmp_path / "ecs.spec"
    path.write_text("family = ecs\ngamma = 1.0\ncutoff = 30\n")
    spec, loss_eta = parse_state_file(str(path))
    rows = measure_rows(spec, loss_eta, ["renyi:2"])
    assert rows[0]["status"] == "ok"
    assert rows[0]["value"] == pytest.approx(2 * math.log(2), abs=1e-6)


def test_measure_state_matches_figure_sweep(tmp_path):
    # the pnes spec file with a loss channel reproduces a fig3 grid row
    path = tmp_path / "pnes.spec"
    c2 = math.sqrt(1 - 0.986**2 - 0.162**2)
    path.write_text(
        f"family = pnes\ncoeffs = 0.986, 0.162, {c2!r}\ncutoff = 8\neta = 0.5\n"
    )
    spec, loss_eta = parse_state_file(str(path))
    rows = measure_rows(spec, loss_eta, ["delta:hs"])
    fig_rows = run_figure("fig3", {"grid": 3}, threads=1)
    mid = [r for r in fig_rows if r["eta"] == 0.5][0]
    assert rows[0]["value"] == pytest.approx(mid["value"], abs=1e-10)


LOSSY_ECS = StateSpec("ecs", {"gamma": 0.6}, cutoff=12)


def _count_synthesis(monkeypatch, fail=False):
    calls = []
    original = ngcorr.measures.reference_gaussian_fock

    def counted(*args, **kwargs):
        calls.append(1)
        if fail:
            raise ConvergenceFailure("synthesis failed on purpose")
        return original(*args, **kwargs)

    monkeypatch.setattr(ngcorr.measures, "reference_gaussian_fock", counted)
    return calls


def test_measure_rows_synthesizes_the_reference_once(monkeypatch):
    calls = _count_synthesis(monkeypatch)
    rows = measure_rows(LOSSY_ECS, 0.7, ["ng:tr", "ng:fid", "delta:tr"])
    assert len(calls) == 1
    state = apply_loss(make_state(LOSSY_ECS), 0.7)
    assert [r["value"] for r in rows] == [
        ng_correlation("tr", state).value,
        ng_correlation("fid", state).value,
        delta_ng("tr", state).value,
    ]


def test_bures_rows_synthesize_no_reference(monkeypatch):
    # delta:bures takes its reference value from the closed form
    calls = _count_synthesis(monkeypatch)
    rows = measure_rows(LOSSY_ECS, 0.7, ["bures", "delta:bures"])
    assert len(calls) == 0
    assert [r["status"] for r in rows] == ["ok", "ok"]


@pytest.mark.parametrize("ids, products, reference_traces", [
    pytest.param(["vn"], 0, 0, id="vn"),
    pytest.param(["hs", "delta:hs"], 1, 0, id="hs"),
    pytest.param(["sandwiched:1.5", "delta:sandwiched:1.5"], 1, 0, id="sandwiched"),
    pytest.param(["tr", "delta:tr", "ng:tr"], 2, 2, id="tr"),
])
def test_measure_rows_build_the_states_marginal_product_once(
        monkeypatch, ids, products, reference_traces):
    # at cutoff 20 the point traces rho once per mode, builds rho_A x rho_B
    # at most once and only for an id that reads it, and traces the
    # Gaussian reference once per mode however many ids read its marginals
    spec = StateSpec("ecs", {"gamma": 1.0}, cutoff=20)
    built, traced, made = [], [], []
    original_loss = ngcorr.cli.apply_loss
    original_trace = ngcorr.measures.partial_trace
    original_tensor = ngcorr.measures.tensor

    def build(*args, **kwargs):
        built.append(original_loss(*args, **kwargs))
        return built[-1]

    def partial_trace(state, keep):
        out = original_trace(state, keep)
        traced.append((state, out))
        return out

    def tensor(a, b):
        made.append((a, b))
        return original_tensor(a, b)

    monkeypatch.setattr(ngcorr.cli, "apply_loss", build)
    monkeypatch.setattr(ngcorr.measures, "partial_trace", partial_trace)
    monkeypatch.setattr(ngcorr.measures, "tensor", tensor)
    rows = measure_rows(spec, 0.7, ids)
    (rho,) = built
    marginals = [out for state, out in traced if state is rho]
    assert len(marginals) == 2
    assert len(traced) == 2 + reference_traces
    assert len(made) == products
    if products:
        assert [(a, b) for a, b in made if a is marginals[0]] == [tuple(marginals)]
    monkeypatch.undo()
    # the unshared route: each id on a state of its own
    assert [r["value"] for r in rows] == [
        measure_rows(spec, 0.7, [mid])[0]["value"] for mid in ids
    ]


def test_a_point_builds_each_marginal_product_once(monkeypatch):
    # rho_A x rho_B and sigma_A x sigma_B, once each: delta:tr keeps the
    # reference's product with it, where ng:tr's averaged pair reads it
    spec = StateSpec("ecs", {"gamma": 1.0}, cutoff=12)
    kron, products = np.kron, []

    def counted(a, b):
        out = kron(a, b)
        if out.shape == (144, 144):
            products.append(out)
        return out

    monkeypatch.setattr(np, "kron", counted)
    rows = measure_rows(spec, 0.7, ["delta:tr", "ng:tr"])
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert len(products) == 2


def test_measure_rows_flags_each_id_when_synthesis_fails(monkeypatch):
    calls = _count_synthesis(monkeypatch, fail=True)
    rows = measure_rows(LOSSY_ECS, 0.7, ["ng:tr", "vn", "delta:tr", "ng:lb1"])
    assert len(calls) == 1
    assert [r["status"] for r in rows] == ["flagged", "ok", "flagged", "flagged"]


def test_csv_writer_format():
    rows = run_figure("fig3", {"grid": 3}, threads=1)
    buf = io.StringIO()
    write_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == 1 + len(rows)


def test_csv_byte_determinism():
    bufs = []
    for _ in range(2):
        rows = run_figure("fig6b", {"samples": 5, "seed": 11}, threads=2)
        buf = io.StringIO()
        write_csv(rows, buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]


def test_unknown_figure_rejected():
    with pytest.raises(ValueError):
        run_figure("fig9z")


# (flags, rows = points x measures) at sizes small enough for the quick suite
TINY_SWEEPS = {
    "fig2a": (["--grid", "2"], 4 * 1),
    "fig2b": (["--grid", "2"], 4 * 1),
    "fig2cd": (["--grid", "2"], 4 * 2),
    "fig2ef": (["--grid", "2"], 4 * 2),
    "fig3": (["--grid", "3"], 3 * 1),
    "fig4": (["--grid", "2", "--cutoff", "12"], 2 * 4),
    "fig5": (["--samples", "3", "--seed", "1"], 3 * 2),
    "fig6a": (["--grid", "2"], 4 * 1),
    "fig6b": (["--samples", "3"], 3 * 2),
    "fig6cd": (["--grid", "2"], 4 * 2),
}


def _run_cli(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(COLUMNS)
    return [dict(zip(COLUMNS, line.split(","))) for line in lines[1:]]


@pytest.mark.parametrize("figure", sorted(TINY_SWEEPS))
def test_every_figure_runs_through_the_cli(tmp_path, figure):
    flags, count = TINY_SWEEPS[figure]
    rows = _run_cli(tmp_path, ["run_figure", figure, "--threads", "2", *flags])
    assert len(rows) == count
    assert {r["status"] for r in rows} <= {"ok", "infinity", "flagged"}
    assert {r["figure"] for r in rows} == {figure}


def test_failed_state_build_flags_every_measure_once_per_point(monkeypatch):
    builds = []
    original = ngcorr.figures.ecs_loss_analytic

    def counted(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ngcorr.figures, "ecs_loss_analytic", counted)
    rows = run_figure("fig4", {"eta": (1.2, 1.3, 2), "cutoff": 12}, threads=1)
    assert len(builds) == 2
    assert [r["measure"] for r in rows] == ["ng_tr", "ng_lb1", "ng_lb2", "delta_vn"] * 2
    assert all(r["status"] == "flagged" and math.isnan(r["value"]) for r in rows)


def test_unnamed_exception_propagates(monkeypatch):
    def buggy(*args, **kwargs):
        raise RuntimeError("a bug, not a domain error")

    monkeypatch.setattr(ngcorr.figures, "ng_correlation", buggy)
    with pytest.raises(RuntimeError):
        run_figure("fig6a", {"grid": 2}, threads=2)


def test_fig4_extracts_the_moments_once_per_point(monkeypatch):
    calls = []
    original = ngcorr.figures.moments_from_fock

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (ngcorr.figures, ngcorr.measures):
        monkeypatch.setattr(module, "moments_from_fock", counted)
    rows = run_figure("fig4", {"eta": (0.2, 0.6, 3), "cutoff": 12}, threads=1)
    assert len(calls) == 3
    assert [r["status"] for r in rows] == ["ok"] * 12


def test_fig4_builds_the_averaged_pair_once_per_point(monkeypatch):
    calls = []
    original = ngcorr.measures.averaged_states

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (ngcorr.figures, ngcorr.measures):
        monkeypatch.setattr(module, "averaged_states", counted, raising=False)
    rows = run_figure("fig4", {"grid": 2}, threads=1)
    assert len(calls) == 2
    assert [r["status"] for r in rows] == ["ok"] * 8


#: fig5's lb1 rows against the Fock route at cutoff 40, which misses the
#: phase-space value by up to 1.2e-7 at the edge of fig5's range (gamma 1.5,
#: eta 0.9)
FIG5_FOCK40_GAP = 3e-7


@pytest.mark.parametrize("options", [{"samples": 40, "seed": 3}, {"samples": 40, "seed": 4}])
def test_fig5_rows_match_the_dense_state_builder(options):
    # fig5 once built each sample's state (the dense builder, cut to its
    # support): delta_ef and its flag came from that state's moments, lb1
    # from its Fock pair; every row now comes from closed forms
    rows = run_figure("fig5", options, threads=1)
    assert [r["measure"] for r in rows] == ["delta_ef", "ng_lb1"] * 40
    assert {r["status"] for r in rows} == {"ok"}
    assert {(r["cutoff"], r["tail_mass"]) for r in rows} == {("", "")}
    for k, (ef, lb1) in enumerate(zip(rows[::2], rows[1::2])):
        params = {"gamma": ef["gamma"], "eta": ef["eta"]}
        dense = dense_sampled_lossy_ecs(params, None)
        assert gaussian_log_negativity(moments_from_fock(dense)) <= 1e-9
        want = float(eof_two_qubit(ecs_to_xstate(ef["gamma"], ef["eta"])))
        assert repr(ef["value"]) == repr(want)
        if k % 10 == 0:
            fock40 = ng_correlation("lb1", ecs_loss_analytic(ef["gamma"], ef["eta"], 40)).value
            old = ng_correlation("lb1", dense).value
            assert abs(lb1["value"] - fock40) <= min(FIG5_FOCK40_GAP, abs(old - fock40) + 1e-13)


@pytest.mark.parametrize("figure, options", [("fig4", {"grid": 6}), ("fig2ef", {"grid": 3})])
def test_lossy_ecs_rows_match_the_kraus_state_builder(monkeypatch, figure, options):
    rows = run_figure(figure, options, threads=1)
    monkeypatch.setitem(FIGURES, figure,
                        dataclasses.replace(FIGURES[figure], state=kraus_lossy_ecs))
    expected = run_figure(figure, options, threads=1)
    assert len(rows) == len(expected)
    for row, ref in zip(rows, expected):
        same = [c for c in COLUMNS if c not in ("value", "tail_mass")]
        assert [row[c] for c in same] == [ref[c] for c in same]
        assert row["value"] == pytest.approx(ref["value"], rel=0, abs=1e-13)
        if ref["tail_mass"] != "":
            assert row["tail_mass"] == pytest.approx(ref["tail_mass"], rel=0, abs=1e-15)
    assert {r["status"] for r in rows} == {"ok"}


def test_fig4_delta_vn_is_the_closed_form_and_meets_the_fock_route():
    fig = FIGURES["fig4"]
    measures = [m for m in fig.measures if m[0] == "delta_vn"]
    rows = sweep("fig4", fig.points({"grid": 11}), measures,
                 lambda p: pytest.fail("the closed form built a state"))
    assert len(rows) == 11
    for row in rows:
        assert row["status"] == "ok" and row["cutoff"] == row["tail_mass"] == ""
        want = delta_ng("vn", ecs_loss_analytic(1.0, row["eta"], 20)).value
        assert row["value"] == pytest.approx(want, rel=0, abs=1e-13), row["eta"]


@pytest.mark.parametrize("gamma", [0.2, 1.0, 2.5])
def test_every_closed_form_delta_is_a_positive_zero_at_full_loss(gamma):
    # a -0.0 would be written as -0
    alphas = sorted({p["alpha"] for p in FIGURES["fig2cd"].points({"eta": (0.0, 0.0, 1)})})
    assert len(alphas) == 41
    for kind in CLOSED_FORM_KINDS:
        for alpha in alphas if kind in ORDERED_KINDS else [None]:
            point = Point({"gamma": gamma, "eta": 0.0, "alpha": alpha}, None)
            value = _lossy_delta(kind)(point)
            assert (value, math.copysign(1.0, value)) == (0.0, 1.0), (kind, alpha)


#: fig5 states with no loss or next to none, where the closed form once
#: gave way to the Kraus channel; the last eta is just below 1e-8 / gamma^2
SMALL_LOSS_ETAS = (0.0, 1e-300, 1e-14, 1e-10, 2.4e-9)


@pytest.mark.parametrize("gamma", [0.2, 1.0, 1.5])
def test_fig5_closed_form_matches_the_channel_at_small_eta(gamma):
    # the closed form that fig2ef and fig4 build, cut to its support, against
    # the loss channel (the dense builder takes it at these etas)
    for eta in (*SMALL_LOSS_ETAS, np.nextafter(1e-8 / gamma**2, 0.0)):
        params = {"gamma": gamma, "eta": eta}
        got = truncate_state(ecs_loss_analytic(gamma, eta, default_cutoff(gamma)), tol=1e-10)
        want = dense_sampled_lossy_ecs(params, None)
        assert got.dims == want.dims, eta
        assert np.max(np.abs(got.rho - want.rho)) <= 1e-15, eta


def test_fig5_ef_excess_just_below_the_old_small_loss_threshold():
    params = {"gamma": 0.2, "eta": 2.4975e-7}
    fig = FIGURES["fig5"]
    rows = sweep("fig5", [params], fig.measures, lambda p: pytest.fail("fig5 built a state"))
    (row,) = [r for r in rows if r["measure"] == "delta_ef"]
    want = wootters_eof(spin_flip_concurrence(ecs_to_xstate(0.2, 2.4975e-7)))
    assert row["status"] == "ok" and row["value"] > 0.0
    assert row["value"] == pytest.approx(want, rel=1e-9)


def test_fig4_pure_state_at_cutoff_12_is_not_flagged():
    # the truncated quadrature matrices gave the eta = 1 state an unphysical
    # covariance matrix here; the zero-padded moments are exact
    rows = run_figure("fig4", {"grid": 2, "cutoff": 12}, threads=1)
    top = [r for r in rows if r["eta"] == 1.0]
    assert [r["status"] for r in top] == ["ok"] * 4
    assert top[0]["measure"] == "ng_tr"
    assert top[0]["value"] == pytest.approx(0.4437, abs=1e-4)


def test_range_flags_sweep_their_axes(tmp_path):
    rows = _run_cli(tmp_path, ["run_figure", "fig6cd", "--grid", "2", "--x", "0.5:1:2"])
    assert len(rows) == 2 * 2 * 2 * 2
    assert sorted({r["x"] for r in rows}) == ["0.5", "1"]
    rows = _run_cli(tmp_path, ["run_figure", "fig6a", "--grid", "2", "--r", "0.2:0.2:1"])
    assert len(rows) == 2
    assert {r["r"] for r in rows} == {"0.20000000000000001"}


@pytest.mark.parametrize("figure, flag", [("fig6cd", "--eta"), ("fig4", "--x"),
                                          ("fig5", "--gamma"), ("fig6a", "--alpha")])
def test_range_flag_without_an_axis_is_a_usage_error(capsys, figure, flag):
    with pytest.raises(SystemExit) as exit_info:
        main(["run_figure", figure, flag, "0.5:0.6:2"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"{figure} sweeps no {flag[2:]} axis" in err


@pytest.mark.parametrize("figure, axis", [("fig4", "gamma"), ("fig5", "gamma"),
                                          ("fig6cd", "eta"), ("fig2a", "r")])
def test_library_range_option_without_an_axis_is_a_bad_spec(figure, axis):
    # no option is ignored: fig4 fixes gamma = 1, and fig5 draws it
    with pytest.raises(BadSpec, match=f"{figure} sweeps no {axis} axis; "
                                      f"option '{axis}' does not apply"):
        run_figure(figure, {axis: (0.5, 0.9, 3), "grid": 2}, threads=1)


def test_fig2_domain_error_is_flagged():
    rows = run_figure("fig2a", {"gamma": (0.0, 0.0, 1), "grid": 2}, threads=1)
    assert [r["status"] for r in rows] == ["flagged", "flagged"]


def test_fig3_cutoff_below_the_pnes_levels_is_flagged():
    rows = run_figure("fig3", {"grid": 2, "cutoff": 2}, threads=1)
    assert [r["status"] for r in rows] == ["flagged", "flagged"]


#: Builds of a state with no amplitude below cutoff 1, each with the measure
#: names whose rows come from a closed form and not from the state.
VANISHING = {
    "measure_state": (lambda: measure_rows(
        StateSpec("ecs", {"gamma": 1.0}, cutoff=1), None, ["vn", "delta:tr", "ng:lb1"]), ()),
    "measure_state_odd_cat": (lambda: measure_rows(
        StateSpec("cat", {"gamma": 1.0, "sign": -1}, cutoff=1), None, ["vn"]), ()),
    "fig4": (lambda: run_figure("fig4", {"grid": 2, "cutoff": 1}, threads=1),
             ("ng_lb1", "ng_lb2", "delta_vn")),
    "fig2ef": (lambda: run_figure(
        "fig2ef", {"grid": 2, "eta": (0.5, 1.0, 2), "cutoff": 1}, threads=1), ("delta_hs",)),
}


@pytest.mark.parametrize("case", sorted(VANISHING))
def test_a_state_that_vanishes_at_the_cutoff_flags_its_rows(case):
    # a RuntimeWarning is an error under the suite's settings: the vector is
    # refused before it is divided by its zero norm
    build, closed_forms = VANISHING[case]
    rows = build()
    assert rows
    for row in rows:
        assert row["status"] == ("ok" if row["measure"] in closed_forms else "flagged"), row


def test_measure_state_error_is_reported_without_traceback(tmp_path, capsys, monkeypatch):
    path = tmp_path / "x.spec"
    path.write_text("family = ecs\ngamma = 1.0\ncutoff = 12\n")
    builds = []
    monkeypatch.setattr(ngcorr.cli, "make_state", lambda spec: builds.append(spec))
    with pytest.raises(SystemExit) as exit_info:
        main(["measure_state", str(path), "vn", "ng:nope"])
    assert exit_info.value.code == 2
    assert builds == []
    assert capsys.readouterr().err == (
        "ngcorr: error: unknown ng kind 'nope'; expected ('tr', 'fid', 'lb1', 'lb2')\n"
    )


def test_non_numeric_spec_value_is_reported_with_its_line(tmp_path, capsys):
    path = tmp_path / "x.spec"
    path.write_text("family = ecs\ngamma = 1.0\ncutoff = abc\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["measure_state", str(path), "vn"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (
        f"ngcorr: error: {path}:3: key 'cutoff': value 'abc' is not numeric\n"
    )


def test_unreadable_spec_file_is_reported_without_traceback(tmp_path, capsys):
    path = tmp_path / "missing.spec"
    with pytest.raises(SystemExit) as exit_info:
        main(["measure_state", str(path), "vn"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (
        f"ngcorr: error: {path}: cannot read state-spec file: No such file or directory\n"
    )


@pytest.mark.parametrize("text", ["renyi:abc", "renyi:0.5:7", "vn:2", "hs:2", "bures:2",
                                  "ng:tr:3", "delta:vn:2", "renyi", "sandwiched",
                                  "delta:renyi", "renyi:nan", "renyi:inf", "renyi:0",
                                  "sandwiched:-1"])
def test_malformed_measure_id_is_reported_before_the_state_is_built(
        tmp_path, capsys, monkeypatch, text):
    path = tmp_path / "x.spec"
    path.write_text("family = ecs\ngamma = 1.0\ncutoff = 12\n")
    builds = []
    monkeypatch.setattr(ngcorr.cli, "make_state", lambda spec: builds.append(spec))
    with pytest.raises(SystemExit) as exit_info:
        main(["measure_state", str(path), "vn", text])
    assert exit_info.value.code == 2
    assert builds == []
    assert capsys.readouterr().err.startswith(f"ngcorr: error: measure id {text!r}: ")


@pytest.mark.parametrize("args", [["fig3", "--eta", "0:1:-1"], ["fig3", "--eta", "0:1:0"],
                                  ["fig3", "--grid", "0"], ["fig5", "--samples", "-1"],
                                  ["fig5", "--samples", "0"]])
def test_count_below_one_is_a_usage_error(capsys, args):
    with pytest.raises(SystemExit) as exit_info:
        main(["run_figure", *args])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "must be an integer >= 1" in err


@pytest.mark.parametrize("figure, flag, text", [("fig2ef", "--gamma", "0.5:inf:2"),
                                               ("fig4", "--eta", "0:nan:2"),
                                               ("fig3", "--eta", "-inf:1:2")])
def test_non_finite_range_end_is_a_usage_error(capsys, figure, flag, text):
    with pytest.raises(SystemExit) as exit_info:
        main(["run_figure", figure, f"{flag}={text}"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"range {text!r} must have a finite start and stop" in err


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2"])
def test_bad_thread_count_in_the_environment_is_reported(monkeypatch, capsys, value):
    monkeypatch.setenv("NGCORR_THREADS", value)
    with pytest.raises(BadSpec):
        default_threads()
    with pytest.raises(SystemExit) as exit_info:
        main(["run_figure", "fig3", "--grid", "2"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (
        f"ngcorr: error: NGCORR_THREADS={value!r} is not a positive integer\n"
    )


def test_default_threads_counts_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.delenv("NGCORR_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert default_threads() == 3
    monkeypatch.setenv("NGCORR_THREADS", "2")
    assert default_threads() == 2
    monkeypatch.delenv("NGCORR_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert default_threads() == 64


@pytest.fixture
def blas_threads():
    """The BLAS thread-count getter, the count set to 2 for the test (or as
    near as the library allows) and put back after it."""
    control = ngcorr.blas.thread_control()
    if control is None:
        pytest.skip("no OpenBLAS thread control in this numpy")
    get, set_ = control
    before = get()
    set_(2)
    yield get
    set_(before)


def _probe(monkeypatch, name, get, hook=None):
    """Record the BLAS count at every call of ``figures.<name>``."""
    seen = []
    original = getattr(ngcorr.figures, name)

    def probed(*args, **kwargs):
        if hook:
            hook()
        seen.append(get())
        return original(*args, **kwargs)

    monkeypatch.setattr(ngcorr.figures, name, probed)
    return seen


FIG4_SMALL = {"eta": (0.2, 0.6, 3), "cutoff": 12}


@pytest.mark.parametrize("threads", [1, 2])
def test_a_sweep_runs_blas_at_one_thread(monkeypatch, blas_threads, threads):
    before = blas_threads()
    seen = _probe(monkeypatch, "ecs_loss_analytic", blas_threads)
    rows = run_figure("fig4", FIG4_SMALL, threads=threads)
    assert seen == [1, 1, 1]
    assert [r["status"] for r in rows] == ["ok"] * 12
    assert blas_threads() == before


def test_a_sweep_that_raises_puts_the_blas_count_back(monkeypatch, blas_threads):
    before = blas_threads()
    seen = []

    def buggy(*args, **kwargs):
        seen.append(blas_threads())
        raise RuntimeError("a bug, not a domain error")

    monkeypatch.setattr(ngcorr.figures, "ng_correlation", buggy)
    with pytest.raises(RuntimeError):
        run_figure("fig6a", {"grid": 2}, threads=2)
    assert seen and set(seen) == {1}
    assert blas_threads() == before


def test_concurrent_sweeps_put_the_blas_count_back(monkeypatch, blas_threads):
    before = blas_threads()
    # both sweeps are inside their first point before either goes on, and
    # the shorter one ends while the longer one still runs
    both_inside = threading.Barrier(2, timeout=60)
    waited = threading.local()

    def meet():
        if not getattr(waited, "done", False):
            waited.done = True
            both_inside.wait()

    seen = _probe(monkeypatch, "ecs_loss_analytic", blas_threads, hook=meet)
    rows = {}

    def run(grid):
        rows[grid] = run_figure("fig4", {"grid": grid, "cutoff": 12}, threads=1)

    users = [threading.Thread(target=run, args=(grid,)) for grid in (2, 4)]
    for user in users:
        user.start()
    for user in users:
        user.join(timeout=120)
    assert not any(user.is_alive() for user in users)
    assert sorted((grid, len(r)) for grid, r in rows.items()) == [(2, 8), (4, 16)]
    assert seen == [1] * 6
    assert blas_threads() == before


def test_measure_state_leaves_blas_at_its_count(monkeypatch, blas_threads):
    before = blas_threads()
    seen = _probe(monkeypatch, "mutual_information", blas_threads)
    rows = measure_rows(LOSSY_ECS, 0.7, ["vn", "tr"])
    assert seen == [before, before]
    assert [r["status"] for r in rows] == ["ok", "ok"]


def test_a_sweep_runs_without_blas_thread_control(monkeypatch, blas_threads):
    before = blas_threads()
    monkeypatch.setattr(ngcorr.blas, "SYMBOLS", (("no_get", "no_set"),))
    assert ngcorr.blas.thread_control() is None
    seen = _probe(monkeypatch, "ecs_loss_analytic", blas_threads)
    rows = run_figure("fig4", FIG4_SMALL, threads=2)
    assert seen == [before] * 3
    assert [r["status"] for r in rows] == ["ok"] * 12


def test_sweep_csv_does_not_depend_on_the_blas_thread_settings(tmp_path):
    # fig6cd's distillation reads BLAS-count-dependent round-off into its
    # en_distilled values when BLAS runs multithreaded
    args = ["run_figure", "fig6cd", "--grid", "11"]
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        assert main([*args, "--threads", threads, "--out", str(out)]) == 0
        texts.append(out.read_text())
    out = tmp_path / "pinned.csv"
    src = os.path.dirname(os.path.dirname(os.path.abspath(ngcorr.figures.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    env.pop("NGCORR_THREADS", None)
    subprocess.run([sys.executable, "-m", "ngcorr.cli", *args, "--out", str(out)],
                   env=env, check=True)
    texts.append(out.read_text())
    assert texts[0] == texts[1] == texts[2]


def test_selftest_runs_the_checkouts_tests_from_any_directory(monkeypatch, tmp_path, capsys):
    ran = []
    monkeypatch.setattr(pytest, "main", lambda args: ran.append(args) or 0)
    monkeypatch.chdir(tmp_path)
    assert main(["selftest", "quick"]) == 0
    tests = os.path.dirname(os.path.realpath(__file__))
    assert ran == [["-q", "--color=no", "-m", "not slow", tests]]
    missing = tmp_path / "tests"
    monkeypatch.setattr(ngcorr.cli, "TESTS_DIR", missing)
    with pytest.raises(SystemExit) as exit_info:
        main(["selftest", "full"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == f"ngcorr: error: test directory {missing} not found\n"
    assert len(ran) == 1


def test_thread_count_below_one_is_a_bad_spec(capsys):
    with pytest.raises(BadSpec):
        run_figure("fig3", {"grid": 2}, threads=0)
    with pytest.raises(SystemExit) as exit_info:
        main(["run_figure", "fig3", "--grid", "2", "--threads", "0"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == "ngcorr: error: threads=0 is not a positive integer\n"


@pytest.mark.parametrize("figure, options", [("fig3", {"grid": 0}), ("fig5", {"samples": 0}),
                                             ("fig3", {"eta": (0.0, 1.0, -1)}),
                                             ("fig3", {"grid": 2.5})])
def test_library_count_below_one_is_a_bad_spec(figure, options):
    with pytest.raises(BadSpec):
        FIGURES[figure].points(options)


@pytest.mark.parametrize("figure, options", [("fig2ef", {"gamma": (0.5, math.inf, 2)}),
                                             ("fig4", {"eta": (0.0, math.nan, 2)}),
                                             ("fig3", {"eta": (-math.inf, 1.0, 2)})])
def test_library_non_finite_range_end_is_a_bad_spec(figure, options):
    with pytest.raises(BadSpec, match="must have finite ends"):
        FIGURES[figure].points(options)


@pytest.mark.parametrize("seed", ["-1", "2.5", "x"])
def test_a_seed_that_is_not_a_non_negative_integer_is_a_usage_error(capsys, seed):
    with pytest.raises(SystemExit) as exit_info:
        main(["run_figure", "fig5", "--samples", "2", f"--seed={seed}"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"seed {seed!r} must be an integer >= 0" in err


@pytest.mark.parametrize("seed", [-1, 2.5, "2.5", True],
                         ids=["negative", "float", "float-text", "bool"])
def test_library_seed_that_is_not_a_non_negative_integer_is_a_bad_spec(seed):
    with pytest.raises(BadSpec, match="is not a non-negative integer"):
        FIGURES["fig5"].points({"samples": 2, "seed": seed})
    assert {p["seed"] for p in FIGURES["fig5"].points({"samples": 2, "seed": 0})} == {0}


@pytest.mark.parametrize("cutoff", ["0", "-3"])
def test_cutoff_below_one_is_refused_on_every_route(tmp_path, capsys, cutoff):
    with pytest.raises(SystemExit) as exit_info:
        main(["run_figure", "fig3", "--grid", "2", "--cutoff", cutoff])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "must be an integer >= 1" in err
    path = tmp_path / "x.spec"
    path.write_text(f"family = ecs\ngamma = 1.0\ncutoff = {cutoff}\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["measure_state", str(path), "vn"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (
        f"ngcorr: error: cutoff={int(cutoff)} is not a positive integer\n")
    with pytest.raises(BadSpec):
        run_figure("fig3", {"grid": 2, "cutoff": int(cutoff)}, threads=1)


@pytest.mark.parametrize("text, message", [
    ("family = tmsv\n", "tmsv requires parameter(s) ['r']"),
    ("family = coherent\n", "coherent requires parameter(s) ['gamma']"),
    ("family = vacuum\nmodes = -1\n", "modes=-1 is not a positive integer"),
    ("family = ecs\ngamma = 1.0\nfoo = 3\n",
     "ecs takes no parameter(s) ['foo']; it takes ['gamma']"),
    ("family = thermal\nnbar = nan\n", "thermal parameter(s) ['nbar'] must be finite"),
    ("family = tmsv\nr = nan\n", "tmsv parameter(s) ['r'] must be finite"),
    ("family = tmsv\nr = inf\n", "tmsv parameter(s) ['r'] must be finite"),
    ("family = ecs\ngamma = -inf\n", "ecs parameter(s) ['gamma'] must be finite"),
    ("family = cat\ngamma = nan\n", "cat parameter(s) ['gamma'] must be finite"),
    ("family = cv_werner\nf = nan\nr = 0.1\n",
     "cv_werner parameter(s) ['f'] must be finite"),
    ("family = pnes\ncoeffs = 1, nan\n", "pnes parameter(s) ['coeffs'] must be finite"),
    ("family = pnes\ncoeffs = 0.6, 0.8, 0\nlevels = 1, 1, 2\n",
     "pnes levels must be distinct, one per coefficient"),
    ("family = ecs\ngamma = 1\ngamma = 2\n", "{path}:3: key 'gamma' repeats line 2"),
], ids=["tmsv-without-r", "coherent-without-gamma", "vacuum-negative-modes",
        "ecs-unknown-key", "thermal-nan-nbar", "tmsv-nan-r", "tmsv-infinite-r",
        "ecs-infinite-gamma", "cat-nan-gamma", "cv_werner-nan-f", "pnes-nan-coeff",
        "pnes-repeated-level", "repeated-key"])
def test_spec_file_the_family_cannot_build_is_reported(tmp_path, capsys, text, message):
    path = tmp_path / "x.spec"
    path.write_text(text)
    with pytest.raises(SystemExit) as exit_info:
        main(["measure_state", str(path), "vn"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == f"ngcorr: error: {message.format(path=path)}\n"


@pytest.mark.parametrize("eta", ["1.5", "nan", "-0.1"])
def test_spec_file_eta_outside_the_unit_interval_is_reported_with_its_line(
        tmp_path, capsys, eta):
    path = tmp_path / "x.spec"
    path.write_text(f"family = ecs\ngamma = 1.0\neta = {eta}\ncutoff = 8\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["measure_state", str(path), "vn"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (
        f"ngcorr: error: {path}:3: eta = {float(eta)} outside [0, 1]\n")


#: One id of every kind, delta and ng ids included.
ALL_MEASURE_IDS = ("vn", "renyi:0.5", "renyi:2", "sandwiched:0.5", "sandwiched:2.5",
                   "hs", "tr", "bures", "delta:vn", "delta:renyi:2",
                   "delta:sandwiched:2.5", "delta:hs", "delta:tr", "delta:bures",
                   "ng:tr", "ng:fid", "ng:lb1", "ng:lb2")


def _assert_status_follows_value(rows):
    for row in rows:
        if row["status"] != "flagged":
            value = float(row["value"])
            assert (row["status"] == "infinity") == math.isinf(value), row
            assert row["status"] in ("ok", "infinity"), row


def test_row_status_is_infinity_exactly_when_the_value_is_infinite(tmp_path):
    for figure, (flags, _rows) in sorted(TINY_SWEEPS.items()):
        _assert_status_follows_value(_run_cli(tmp_path, ["run_figure", figure, *flags]))
    path = tmp_path / "ecs.spec"
    path.write_text("family = ecs\ngamma = 1.0\ncutoff = 20\n")
    rows = _run_cli(tmp_path, ["measure_state", str(path), *ALL_MEASURE_IDS])
    assert [r["measure"] for r in rows] == list(ALL_MEASURE_IDS)
    _assert_status_follows_value(rows)
    (pure_delta,) = [r for r in rows if r["measure"] == "delta:sandwiched:2.5"]
    assert (pure_delta["value"], pure_delta["status"]) == ("-inf", "infinity")


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_importing_the_cli_loads_no_scipy():
    # numpy is the one runtime dependency, and every run pays the import;
    # the phase-space module is part of it
    code = ("import sys, ngcorr.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')), "
            "'ngcorr.phase' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": "src"})
    assert out.stdout == "[] True\n"


#: Why a figure refuses each option it has no use for.
REFUSED = {"cutoff": "builds no Fock state", "grid": "draws its points at random",
           "samples": "sweeps a grid", "seed": "sweeps a grid"}


@pytest.mark.parametrize("figure, key", [
    ("fig2a", "cutoff"), ("fig2b", "cutoff"), ("fig2cd", "cutoff"), ("fig5", "cutoff"),
    ("fig5", "grid"), ("fig6b", "grid"), ("fig3", "samples"), ("fig3", "seed"),
    ("fig4", "seed"),
])
def test_an_option_the_figure_cannot_use_is_refused(capsys, figure, key):
    with pytest.raises(SystemExit) as exit_info:
        main(["run_figure", figure, f"--{key}", "2"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert err.endswith(f"error: {figure} {REFUSED[key]}; --{key} does not apply\n")
    with pytest.raises(BadSpec, match=f"{figure} {REFUSED[key]}; option '{key}' does not apply"):
        run_figure(figure, {key: 2}, threads=1)


def test_a_closed_pipe_ends_the_run_without_a_traceback():
    # fig2a's 1681 rows overfill the pipe, so the writer meets the closed end
    proc = subprocess.Popen([sys.executable, "-m", "ngcorr.cli", "run_figure", "fig2a",
                             "--threads", "1"], cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": "src"})
    assert proc.stdout.readline().decode() == ",".join(COLUMNS) + "\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


NG_IDS = ("ng:tr", "ng:fid", "ng:lb1", "ng:lb2")


def test_no_ng_row_is_a_negative_zero():
    # -ln 1 is -0.0, which the CSV writes as -0
    rows = run_figure("fig4", {"grid": 11}, threads=1) + run_figure("fig6a", {"grid": 5},
                                                                     threads=1)
    coherent = tensor(make_state(StateSpec("coherent", {"gamma": 0.6}, cutoff=16)),
                      make_state(StateSpec("coherent", {"gamma": -0.4j}, cutoff=16)))
    measures = [(mid, measure(*_parse_measure_id(mid))) for mid in NG_IDS]
    rows += sweep("measure_state", [{}], measures, lambda _: coherent)
    rows += measure_rows(StateSpec("tmsv", {"r": 0.3}, cutoff=20), None, NG_IDS)
    values = [r["value"] for r in rows if r["measure"].startswith("ng")]
    assert len(values) == 3 * 11 + 10 + 4 + 4
    assert all(v == v and math.copysign(1.0, v) == 1.0 for v in values), values
