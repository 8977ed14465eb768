"""Construction of the bosonic states used throughout the package."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadSpec, TruncationError
from .fock import DEFAULT_TAIL_TOL, FockState, pure_state, unit_vector

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
    """Named state family, its parameters (``FAMILY_PARAMS``) and an optional
    per-mode cutoff."""

    family: str
    params: dict = field(default_factory=dict)
    cutoff: int | None = None

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
        if "modes" in p:
            _count(p["modes"], "modes")
        infinite = [key for key in ("gamma", "nbar", "f", "r", "coeffs")
                    if key in p and not np.isfinite(np.asarray(p[key], dtype=complex)).all()]
        if infinite:
            raise BadSpec(f"{self.family} parameter(s) {infinite} must be finite")
        if self.family == "pnes":
            coeffs = np.asarray(p["coeffs"], dtype=complex)
            if coeffs.size < 1:
                raise BadSpec("pnes requires a nonempty coefficient list")
            if abs(np.sum(np.abs(coeffs) ** 2) - 1.0) > 1e-12:
                raise BadSpec("pnes coefficients must satisfy sum |c_k|^2 = 1")
            levels = p.get("levels")
            if levels is not None and not len(set(levels)) == len(levels) == coeffs.size:
                raise BadSpec("pnes levels must be distinct, one per coefficient")
        if self.family == "cv_werner":
            f = float(p["f"])
            r = float(p["r"])
            if not 0.0 <= f <= 1.0:
                raise BadSpec(f"cv_werner fraction f = {f} outside [0, 1]")
            if r < 0.0:
                raise BadSpec(f"cv_werner squeezing r = {r} must be >= 0")
        if self.family in ("thermal", "photon_correlated"):
            if float(p["nbar"]) < 0.0:
                raise BadSpec("mean photon number nbar must be >= 0")
        if self.family in ("cat", "ecs") and not abs(complex(p["gamma"])) > 0:
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


def log_factorials(count):
    """ln n! for n = 0 .. count - 1."""
    return np.array([math.lgamma(k + 1) for k in range(count)])


def coherent_amps(gamma, cutoff):
    """Fock amplitudes of |gamma>, truncated (not renormalized)."""
    n = np.arange(cutoff)
    gamma = complex(gamma)
    if gamma == 0:
        amps = np.zeros(cutoff, dtype=complex)
        amps[0] = 1.0
        return amps
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


def cat_basis(gamma, cutoff):
    """Orthonormal even/odd cat vectors built from |gamma> and |-gamma>."""
    if complex(gamma) == 0:
        raise BadSpec("cat basis undefined at gamma = 0")
    plus, minus = cat_vectors(gamma, cutoff)
    tail = max(abs(plus[-1]) ** 2, abs(minus[-1]) ** 2)
    if tail >= DEFAULT_TAIL_TOL:
        raise TruncationError(f"cat-basis tail mass {tail:.3e} >= {DEFAULT_TAIL_TOL}")
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
    vec = np.zeros((cutoff, cutoff), dtype=complex)
    vec[k, k] = amps
    return vec.ravel()


def make_state(spec):
    """Build the FockState described by ``spec``.

    Raises TruncationError when the top-level population meets or exceeds
    ``DEFAULT_TAIL_TOL``, signalling that the requested cutoff is too small.
    """
    fam = spec.family
    p = spec.params
    if fam == "vacuum":
        modes = int(p.get("modes", 2))
        cut = spec.cutoff or 4
        vec = np.zeros(cut**modes, dtype=complex)
        vec[0] = 1.0
        state = pure_state(vec, (cut,) * modes, validate=False)
    elif fam == "coherent":
        g = complex(p["gamma"])
        cut = spec.cutoff or default_cutoff(g)
        state = pure_state(coherent_amps(g, cut), (cut,), validate=False)
    elif fam == "thermal":
        nbar = float(p["nbar"])
        cut = spec.cutoff or thermal_cutoff(nbar)
        d = _thermal_diag(nbar, cut)
        state = FockState((cut,), np.diag(d / d.sum()).astype(complex), validate=False)
    elif fam == "cat":
        g = complex(p["gamma"])
        sign = int(p.get("sign", +1))
        cut = spec.cutoff or default_cutoff(g)
        plus, minus = cat_basis(g, cut)
        state = pure_state(plus if sign >= 0 else minus, (cut,), validate=False)
    elif fam == "ecs":
        g = complex(p["gamma"])
        cut = spec.cutoff or default_cutoff(g)
        c = coherent_amps(g, cut)
        cm = coherent_amps(-g, cut)
        vec = np.kron(c, c) - np.kron(cm, cm)
        state = pure_state(vec, (cut, cut), validate=False)
    elif fam == "pnes":
        coeffs = np.asarray(p["coeffs"], dtype=complex)
        levels = p.get("levels")
        levels = np.arange(coeffs.size) if levels is None else np.asarray(levels, int)
        cut = spec.cutoff or max(int(levels.max()) + 2, 4)
        if levels.min() < 0 or levels.max() >= cut:
            raise BadSpec(f"pnes levels {levels.tolist()} do not fit cutoff {cut}")
        vec = np.zeros((cut, cut), dtype=complex)
        vec[levels, levels] = coeffs
        state = pure_state(vec.ravel(), (cut, cut), validate=False)
    elif fam == "tmsv":
        r = float(p["r"])
        cut = spec.cutoff or thermal_cutoff(math.sinh(r) ** 2)
        state = pure_state(_tmsv_vec(r, cut), (cut, cut), validate=False)
    elif fam == "cv_werner":
        f = float(p["f"])
        r = float(p["r"])
        cut = spec.cutoff or thermal_cutoff(math.sinh(r) ** 2)
        vac = np.zeros(cut * cut, dtype=complex)
        vac[0] = 1.0
        phi = _tmsv_vec(r, cut)
        phi = phi / np.linalg.norm(phi)
        rho = (1.0 - f) * np.outer(vac, vac.conj()) + f * np.outer(phi, phi.conj())
        state = FockState((cut, cut), rho, validate=False)
    elif fam == "photon_correlated":
        nbar = float(p["nbar"])
        cut = spec.cutoff or thermal_cutoff(nbar)
        d = _thermal_diag(nbar, cut)
        d = d / d.sum()
        rho = np.zeros((cut * cut, cut * cut), dtype=complex)
        idx = np.arange(cut) * cut + np.arange(cut)
        rho[idx, idx] = d
        state = FockState((cut, cut), rho, validate=False)
    else:  # pragma: no cover - guarded by StateSpec
        raise BadSpec(f"unknown family {fam!r}")
    if state.tail_mass >= DEFAULT_TAIL_TOL:
        raise TruncationError(
            f"{fam} tail mass {state.tail_mass:.3e} >= {DEFAULT_TAIL_TOL}; increase cutoff"
        )
    return state
