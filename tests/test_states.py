import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import ngcorr.fock
import ngcorr.states
from ngcorr.channels import apply_loss, ecs_loss_analytic
from ngcorr.entanglement import log_negativity_fock
from ngcorr.errors import BadEta, BadSpec, TruncationError
from ngcorr.fock import cat_vectors, coherent_amps, ladder_ops, partial_trace, pure_state
from ngcorr.states import StateSpec, cat_basis, make_state
from oracles import displacement, expect


def test_coherent_mean_photon():
    st = make_state(StateSpec("coherent", {"gamma": 1.2}, cutoff=30))
    n = ladder_ops(30).number
    assert expect(n, st) == pytest.approx(1.44, abs=1e-9)


def test_cat_basis_orthonormal():
    plus, minus = cat_basis(0.9, 20)
    assert np.vdot(plus, plus).real == pytest.approx(1.0, abs=1e-12)
    assert np.vdot(minus, minus).real == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(plus, minus)) < 1e-12
    # even / odd photon-number support
    assert np.max(np.abs(plus[1::2])) < 1e-14
    assert np.max(np.abs(minus[0::2])) < 1e-14


def test_ecs_marginal_rank_two():
    st = make_state(StateSpec("ecs", {"gamma": 1.0}, cutoff=20))
    ra = partial_trace(st, [0])
    w = np.linalg.eigvalsh(ra.rho)
    assert np.sum(w > 1e-10) == 2


def test_tmsv_mean_photon():
    r = 0.4
    st = make_state(StateSpec("tmsv", {"r": r}, cutoff=20))
    n = ladder_ops(20).number
    full_n = np.kron(n, np.eye(20))
    assert np.sum(full_n.T * st.rho).real == pytest.approx(math.sinh(r) ** 2, abs=1e-10)


def test_tmsv_photon_number_correlated():
    st = make_state(StateSpec("tmsv", {"r": 0.3}, cutoff=12))
    diag = np.real(np.diagonal(st.rho)).reshape(12, 12)
    off = diag - np.diag(np.diag(diag))
    assert np.max(np.abs(off)) < 1e-14


def test_cv_werner_structure():
    st = make_state(StateSpec("cv_werner", {"f": 0.3, "r": 0.1}, cutoff=10))
    assert np.trace(st.rho).real == pytest.approx(1.0, abs=1e-12)
    assert st.rho[0, 0].real > 0.7  # vacuum fraction dominates


def test_pnes_amplitudes():
    coeffs = [0.8, 0.6]
    st = make_state(StateSpec("pnes", {"coeffs": coeffs}, cutoff=6))
    diag = np.real(np.diagonal(st.rho)).reshape(6, 6)
    assert diag[0, 0] == pytest.approx(0.64, abs=1e-12)
    assert diag[1, 1] == pytest.approx(0.36, abs=1e-12)


def test_pnes_requires_normalized_coeffs():
    with pytest.raises(BadSpec):
        StateSpec("pnes", {"coeffs": [0.9, 0.9]})


def test_cv_werner_requires_valid_fraction():
    with pytest.raises(BadSpec):
        StateSpec("cv_werner", {"f": 1.5, "r": 0.1})


def test_unknown_family_rejected():
    with pytest.raises(BadSpec):
        StateSpec("squeezed_cat", {})


@pytest.mark.parametrize("family, params", [
    ("tmsv", {}),
    ("coherent", {}),
    ("vacuum", {"modes": -1}),
    ("ecs", {"gamma": 1.0, "foo": 3}),
], ids=["tmsv-without-r", "coherent-without-gamma", "vacuum-negative-modes",
        "ecs-unknown-key"])
def test_spec_rejects_what_it_cannot_build(family, params):
    with pytest.raises(BadSpec):
        StateSpec(family, params)


@pytest.mark.parametrize("family, params, eta", [
    ("ecs", {"gamma": "1.0"}, None),
    ("ecs", {"gamma": True}, None),
    ("ecs", {"gamma": 1.0}, "0.5"),
    ("ecs", {"gamma": 1.0}, 0.5 + 0j),
    ("thermal", {"nbar": 0.5 + 0.1j}, None),
    ("tmsv", {"r": 0.6 + 0j}, None),
    ("pnes", {"coeffs": ["0.6", "0.8"]}, None),
    ("cv_werner", {"f": "0.5", "r": 0.1}, None),
    ("pnes", {"coeffs": [0.6, 0.8], "levels": [0, 1.7]}, None),
    ("cat", {"gamma": 1.0, "sign": "1"}, None),
], ids=["str-gamma", "bool-gamma", "str-eta", "complex-eta", "complex-nbar", "complex-r",
        "str-coeffs", "str-f", "fractional-level", "str-sign"])
def test_spec_refuses_a_number_of_the_wrong_type(family, params, eta):
    # gamma and coeffs are real or complex numbers, nbar, f, r and eta real
    # ones, levels and sign integers; make_state would otherwise stop on a
    # TypeError or ValueError, outside FLAGGED, or build level 1 for 1.7
    with pytest.raises(BadSpec):
        StateSpec(family, params, eta=eta)


@pytest.mark.parametrize("params, level", [
    ({"coeffs": 1.0}, 0),
    ({"coeffs": 1.0, "levels": 2}, 2),
    ({"coeffs": [0.6, 0.8], "levels": 3}, None),
    ({"coeffs": [0.6, 0.8], "levels": [[0], [1]]}, None),
    ({"coeffs": [[0.6], [0.8]]}, None),
    ({"coeffs": [[0.6, 0.8]], "levels": [0, 1]}, None),
], ids=["number", "number-at-level", "one-level-for-two", "nested-levels", "nested-coeffs",
        "row-of-coeffs"])
def test_pnes_coeffs_and_levels_are_each_a_number_or_a_flat_list(params, level):
    # anything else would stop make_state on a TypeError or a numpy shape
    # ValueError, outside FLAGGED; a number is the one-entry list
    if level is None:
        with pytest.raises(BadSpec):
            StateSpec("pnes", params)
        return
    state = make_state(StateSpec("pnes", params))
    cut = state.dims[0]
    assert np.diag(state.rho)[level * (cut + 1)] == 1.0


@pytest.mark.parametrize("cutoff", [0, -2])
def test_spec_cutoff_below_one_is_a_bad_spec(cutoff):
    with pytest.raises(BadSpec, match="cutoff"):
        StateSpec("ecs", {"gamma": 1.0}, cutoff=cutoff)


def test_truncation_guard():
    with pytest.raises(TruncationError):
        make_state(StateSpec("coherent", {"gamma": 3.0}, cutoff=5))


def test_an_even_cat_at_an_even_cutoff_is_refused_through_its_odd_partner():
    # the even cat's top level (19) is empty by parity, so its own tail reads
    # 0 while level 18 holds 5.8e-3; the odd partner's top level holds 2.7e-3
    plus, minus = cat_vectors(3.0, 20)
    assert pure_state(plus, (20,)).tail_mass == 0.0
    assert abs(plus[-2]) ** 2 > 5e-3 and abs(minus[-1]) ** 2 > 2e-3
    with pytest.raises(TruncationError, match="cat-basis tail mass 2.743e-03"):
        make_state(StateSpec("cat", {"gamma": 3.0}, cutoff=20))


def test_displacement_unitary_and_action():
    d = displacement(0.4, 25)
    assert np.max(np.abs(d.conj().T @ d - np.eye(25))) < 1e-10
    assert not d.flags.writeable
    vac = np.zeros(25, dtype=complex)
    vac[0] = 1.0
    moved = d @ vac
    assert np.max(np.abs(moved - coherent_amps(0.4, 25))) < 1e-10


def test_pnes_levels_must_fit_the_cutoff():
    with pytest.raises(BadSpec):
        make_state(StateSpec("pnes", {"coeffs": [0.6, 0.8, 0.0]}, cutoff=2))
    with pytest.raises(BadSpec):
        make_state(StateSpec("pnes", {"coeffs": [0.6, 0.8], "levels": [0, -1]},
                             cutoff=4))


@pytest.mark.parametrize("cutoff", [20, 120])
def test_real_negative_amplitude_has_exact_signs(cutoff):
    amps = coherent_amps(-0.8, cutoff)
    assert not np.any(amps.imag)
    assert np.array_equal(np.sign(amps.real), (-1.0) ** np.arange(cutoff))


def _same_state(got, want):
    """Byte-identical rho and columns, of the same dtypes."""
    assert got.dims == want.dims
    assert got.rho.dtype == want.rho.dtype and np.array_equal(got.rho, want.rho)
    if want.columns is None:
        assert got.columns is None
    else:
        assert got.columns.dtype == want.columns.dtype
        assert np.array_equal(got.columns, want.columns)


@pytest.mark.parametrize("gamma, eta, cutoff, closed", [
    (1.0, 0.7, None, (1.0, 0.7, 20)),
    (0.3 + 0.5j, 0.6, 20, (0.3 + 0.5j, 0.6, 20)),
    # ECS(-gamma) = -ECS(gamma): a real amplitude enters as its magnitude
    (-0.5, 0.5, 16, (0.5, 0.5, 16)),
])
def test_an_ecs_spec_with_eta_is_the_closed_form(gamma, eta, cutoff, closed):
    state = make_state(StateSpec("ecs", {"gamma": gamma}, cutoff=cutoff, eta=eta))
    _same_state(state, ecs_loss_analytic(*closed))


@pytest.mark.parametrize("spec", [
    StateSpec("pnes", {"coeffs": [0.8, 0.36j, 0.48]}, cutoff=8, eta=0.8),
    StateSpec("tmsv", {"r": 0.4}, eta=0.9),
])
def test_any_other_spec_with_eta_goes_through_the_loss_channel(spec):
    lossless = make_state(dataclasses.replace(spec, eta=None))
    _same_state(make_state(spec), apply_loss(lossless, spec.eta))


def test_a_lossy_spec_is_tail_checked_before_the_channel(monkeypatch):
    # the pure pnes state fails its tail check, so no loss is applied
    monkeypatch.setattr(ngcorr.states, "apply_loss", None)
    with pytest.raises(TruncationError):
        make_state(StateSpec("pnes", {"coeffs": [0.6, 0.8]}, cutoff=2, eta=0.5))


@pytest.mark.parametrize("eta", [1.5, -0.1, math.nan])
def test_a_spec_refuses_a_transmittance_outside_the_unit_interval(eta):
    with pytest.raises(BadEta):
        StateSpec("ecs", {"gamma": 1.0}, eta=eta)


@pytest.mark.parametrize("module", ["cli.py", "figures.py"])
def test_only_make_state_chooses_a_loss_route(module):
    # the command line and the figures build every state through a spec,
    # so neither names a loss builder
    source = Path(ngcorr.states.__file__).with_name(module).read_text()
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert imported.isdisjoint({"apply_loss", "ecs_loss_analytic", "default_cutoff"})


def _functions_where(module, hit):
    """Names of the functions of ``ngcorr/<module>`` with a node ``hit``
    accepts; '<module>' for one outside every function."""
    tree = ast.parse(Path(ngcorr.states.__file__).with_name(module).read_text())
    found = {fn.name for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and any(map(hit, ast.walk(fn)))}
    outside = [stmt for stmt in tree.body if not isinstance(stmt, ast.FunctionDef)]
    if any(hit(node) for stmt in outside for node in ast.walk(stmt)):
        found.add("<module>")
    return found


def _names(node, name):
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def test_fock_alone_refuses_a_tail():
    # one truncation rule (fock.check_tail); outside fock the tolerance only
    # chooses a cutoff
    def constructs(node):
        return (isinstance(node, ast.Call) and _names(node.func, "TruncationError")
                or isinstance(node, ast.Raise) and _names(node.exc, "TruncationError"))

    def reads_tol(node):
        return isinstance(getattr(node, "ctx", None), ast.Load) and _names(
            node, "DEFAULT_TAIL_TOL")

    modules = sorted(path.name for path in Path(ngcorr.states.__file__).parent.glob("*.py")
                     if path.name != "fock.py")
    assert {(m, fn) for m in modules for fn in _functions_where(m, constructs)} == set()
    assert {(m, fn) for m in modules for fn in _functions_where(m, reads_tol)} == {
        ("states.py", "thermal_cutoff")}
    assert _functions_where("fock.py", reads_tol) == {"check_tail"}


def test_every_tail_check_reads_fock_s_tolerance(monkeypatch):
    operand = make_state(StateSpec("tmsv", {"r": 0.3}))
    monkeypatch.setattr(ngcorr.fock, "DEFAULT_TAIL_TOL", 0.0)
    refused = {
        "pnes": lambda: make_state(StateSpec("pnes", {"coeffs": [0.6, 0.8]})),
        "cat-basis": lambda: make_state(StateSpec("cat", {"gamma": 1.0})),
        "lossy-ECS": lambda: make_state(StateSpec("ecs", {"gamma": 1.0}, eta=0.5)),
        "negativity operand": lambda: log_negativity_fock(operand),
    }
    for what, build in refused.items():
        message = f"^{what} tail mass .* >= 0.0; increase cutoff$"
        with pytest.raises(TruncationError, match=message):
            build()
    monkeypatch.setattr(ngcorr.fock, "DEFAULT_TAIL_TOL", 1.0)
    assert make_state(StateSpec("ecs", {"gamma": 3.0}, cutoff=10)).tail_mass > 1e-6
