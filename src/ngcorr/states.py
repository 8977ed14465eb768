"""Construction of the bosonic states used throughout the package.

``make_state`` is the only code that chooses a loss route: an ``ecs`` spec
with ``eta`` is the lossy ECS in closed form (``channels.ecs_loss_analytic``),
tail-checked after the loss; any other family is built, tail-checked, and
then sent through the loss channel (``channels.apply_loss``)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Complex, Integral, Real

import numpy as np

from .channels import apply_loss, ecs_loss_analytic
from .errors import BadSpec, check_eta
from .fock import (DEFAULT_TAIL_TOL, FockState, cat_vectors, check_tail, coherent_amps,
                   pure_state)

#: The required and the optional parameters of each state family.
FAMILY_PARAMS = {
    "vacuum": ((), ("modes",)),
    "coherent": (("gamma",), ()),
    "thermal": (("nbar",), ()),
    "cat": (("gamma",), ("sign",)),
    "ecs": (("gamma",), ()),
    "pnes": (("coeffs",), ("levels",)),
    "tmsv": (("r",), ()),
    "cv_werner": (("f", "r"), ()),
    "photon_correlated": (("nbar",), ()),
}
FAMILIES = tuple(FAMILY_PARAMS)


def _count(value, name, least=1):
    """A cutoff, mode, thread, grid, sample or range count, or a seed with
    ``least`` 0: an integer >= ``least``, given as an int or its decimal string."""
    if not str(value).strip().isdecimal() or int(value) < least:
        sign = "positive" if least else "non-negative"
        raise BadSpec(f"{name}={value!r} is not a {sign} integer")
    return int(value)


@dataclass(frozen=True)
class StateSpec:
    """Named state family, its parameters (``FAMILY_PARAMS``), an optional
    per-mode cutoff and an optional transmittance ``eta`` in [0, 1] of a
    symmetric pure-loss channel applied to the state (``make_state``)."""

    family: str
    params: dict = field(default_factory=dict)
    cutoff: int | None = None
    eta: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise BadSpec(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        required, optional = FAMILY_PARAMS[self.family]
        p = self.params
        missing = [key for key in required if key not in p]
        if missing:
            raise BadSpec(f"{self.family} requires parameter(s) {missing}")
        unknown = sorted(set(p) - set(required) - set(optional))
        if unknown:
            raise BadSpec(f"{self.family} takes no parameter(s) {unknown}; "
                          f"it takes {list(required + optional)}")
        if self.cutoff is not None:
            object.__setattr__(self, "cutoff", _count(self.cutoff, "cutoff"))
        kinds = {"gamma": Complex, "coeffs": Complex, "nbar": Real, "f": Real, "r": Real,
                 "eta": Real, "levels": Integral, "sign": Integral}
        given = p if self.eta is None else {**p, "eta": self.eta}
        wrong = [key for key, value in given.items() if key in kinds and not all(
            isinstance(v, kinds[key]) and not isinstance(v, bool)  # True is an Integral
            for v in np.asarray(value, dtype=object).ravel())]
        if wrong:
            raise BadSpec(f"{self.family} {wrong} must be numbers: gamma and coeffs real or "
                          "complex, nbar, f, r and eta real, levels and sign integers")
        if self.eta is not None:
            check_eta(self.eta)
        if "modes" in p:
            _count(p["modes"], "modes")
        infinite = [key for key in ("gamma", "nbar", "f", "r", "coeffs")
                    if key in p and not np.isfinite(np.asarray(p[key], dtype=complex)).all()]
        if infinite:
            raise BadSpec(f"{self.family} parameter(s) {infinite} must be finite")
        if self.family == "pnes":
            coeffs = np.asarray(p["coeffs"], dtype=complex)
            levels = np.asarray(p.get("levels", range(coeffs.size)))
            if max(coeffs.ndim, levels.ndim) > 1:
                raise BadSpec("pnes coeffs and levels must each be a number or a flat list")
            if coeffs.size < 1:
                raise BadSpec("pnes requires a nonempty coefficient list")
            if abs(np.sum(np.abs(coeffs) ** 2) - 1.0) > 1e-12:
                raise BadSpec("pnes coefficients must satisfy sum |c_k|^2 = 1")
            if not np.unique(levels).size == levels.size == coeffs.size:
                raise BadSpec("pnes levels must be distinct, one per coefficient")
        if self.family == "cv_werner":
            if not 0.0 <= p["f"] <= 1.0:
                raise BadSpec(f"cv_werner fraction f = {p['f']} outside [0, 1]")
            if p["r"] < 0.0:
                raise BadSpec(f"cv_werner squeezing r = {p['r']} must be >= 0")
        if self.family in ("thermal", "photon_correlated"):
            if p["nbar"] < 0.0:
                raise BadSpec("mean photon number nbar must be >= 0")
        if self.family in ("cat", "ecs") and p["gamma"] == 0:
            raise BadSpec(f"{self.family} requires a nonzero amplitude gamma")


def default_cutoff(gamma):
    """Cutoff rule keeping coherent-tail mass below ~1e-8."""
    g = abs(gamma)
    if g <= 1.2:
        return 20
    if g <= 2.5:
        return 30
    return 40


def thermal_cutoff(nbar):
    """Smallest cutoff, from 8 to 80, with geometric tail mass below
    ``DEFAULT_TAIL_TOL * 1e-2``."""
    if nbar <= 1e-9:
        return 8
    n = math.ceil(math.log(DEFAULT_TAIL_TOL * 1e-2) / math.log(nbar / (nbar + 1.0)))
    return int(min(max(8, n), 80))


def cat_basis(gamma, cutoff):
    """Orthonormal even/odd cat vectors of |gamma> and |-gamma>, both tail-checked."""
    plus, minus = cat_vectors(gamma, cutoff)
    check_tail(max(abs(plus[-1]) ** 2, abs(minus[-1]) ** 2), "cat-basis")
    return plus, minus


def _thermal_diag(nbar, cutoff):
    if nbar <= 0:
        d = np.zeros(cutoff)
        d[0] = 1.0
        return d
    k = np.arange(cutoff)
    return np.exp(k * math.log(nbar / (nbar + 1.0)) - math.log(nbar + 1.0))


def _tmsv_vec(r, cutoff):
    k = np.arange(cutoff)
    amps = np.tanh(r) ** k / np.cosh(r)
    vec = np.zeros((cutoff, cutoff))
    vec[k, k] = amps
    return vec.ravel()


def make_state(spec):
    """Build the FockState described by ``spec``, lossy if it has ``eta``.

    ``fock.check_tail`` refuses a cutoff too small for the state: before the
    loss channel, or after it for the lossy ECS's closed form.
    """
    fam = spec.family
    p = spec.params
    if fam == "vacuum":
        modes = int(p.get("modes", 2))
        cut = spec.cutoff or 4
        vec = np.zeros(cut**modes)
        vec[0] = 1.0
        state = pure_state(vec, (cut,) * modes)
    elif fam == "coherent":
        g = p["gamma"]
        cut = spec.cutoff or default_cutoff(g)
        state = pure_state(coherent_amps(g, cut), (cut,))
    elif fam == "thermal":
        nbar = float(p["nbar"])
        cut = spec.cutoff or thermal_cutoff(nbar)
        d = _thermal_diag(nbar, cut)
        state = FockState((cut,), np.diag(d / d.sum()), validate=False)
    elif fam == "cat":
        g = p["gamma"]
        cut = spec.cutoff or default_cutoff(g)
        plus, minus = cat_basis(g, cut)
        state = pure_state(plus if p.get("sign", 1) >= 0 else minus, (cut,))
    elif fam == "ecs":
        g = p["gamma"]
        cut = spec.cutoff or default_cutoff(g)
        if spec.eta is not None:
            # ECS(-gamma) = -ECS(gamma) is one state: a real amplitude enters
            # the closed form as its magnitude
            return ecs_loss_analytic(g if isinstance(g, complex) else abs(g), spec.eta, cut)
        c = coherent_amps(g, cut)
        cm = coherent_amps(-g, cut)
        vec = np.kron(c, c) - np.kron(cm, cm)
        state = pure_state(vec, (cut, cut))
    elif fam == "pnes":
        coeffs = np.asarray(p["coeffs"])
        levels = np.asarray(p.get("levels", range(coeffs.size)), int)
        cut = spec.cutoff or max(int(levels.max()) + 2, 4)
        if levels.min() < 0 or levels.max() >= cut:
            raise BadSpec(f"pnes levels {levels.tolist()} do not fit cutoff {cut}")
        vec = np.zeros((cut, cut), dtype=np.result_type(coeffs, float))
        vec[levels, levels] = coeffs
        state = pure_state(vec.ravel(), (cut, cut))
    elif fam == "tmsv":
        r = float(p["r"])
        cut = spec.cutoff or thermal_cutoff(math.sinh(r) ** 2)
        state = pure_state(_tmsv_vec(r, cut), (cut, cut))
    elif fam == "cv_werner":
        f = float(p["f"])
        r = float(p["r"])
        cut = spec.cutoff or thermal_cutoff(math.sinh(r) ** 2)
        vac = np.zeros(cut * cut)
        vac[0] = 1.0
        phi = _tmsv_vec(r, cut)
        phi = phi / np.linalg.norm(phi)
        rho = (1.0 - f) * np.outer(vac, vac) + f * np.outer(phi, phi)
        columns = np.stack([math.sqrt(1.0 - f) * vac, math.sqrt(f) * phi], axis=1)
        state = FockState((cut, cut), rho, validate=False, columns=columns)
    else:  # photon_correlated
        nbar = float(p["nbar"])
        cut = spec.cutoff or thermal_cutoff(nbar)
        d = _thermal_diag(nbar, cut)
        d = d / d.sum()
        rho = np.zeros((cut * cut, cut * cut))
        idx = np.arange(cut) * cut + np.arange(cut)
        rho[idx, idx] = d
        state = FockState((cut, cut), rho, validate=False)
    check_tail(state.tail_mass, fam)
    return state if spec.eta is None else apply_loss(state, spec.eta)
