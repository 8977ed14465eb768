import io
import math

import pytest

from ngcorr.cli import (
    _parse_measure_id,
    build_parser,
    measure_rows,
    parse_state_file,
    write_csv,
)
import ngcorr.measures
from ngcorr.channels import apply_loss
from ngcorr.errors import BadSpec, ConvergenceFailure
from ngcorr.figures import COLUMNS, run_figure
from ngcorr.measures import delta_ng, ng_correlation
from ngcorr.states import StateSpec, make_state


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
        rows = run_figure("fig6b", {"grid": 3, "samples": 5, "seed": 11}, threads=2)
        buf = io.StringIO()
        write_csv(rows, buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]


def test_unknown_figure_rejected():
    with pytest.raises(ValueError):
        run_figure("fig9z")
