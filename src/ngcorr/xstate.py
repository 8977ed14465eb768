"""Closed-form mutual informations for X-form two-qubit states, plus the
cat-basis embedding of the lossy entangled coherent state.

These serve as independent oracles against the Fock-basis numerics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, DomainError
from .channels import cat_norms, ecs_weights


@dataclass(frozen=True)
class XStateParams:
    """Two-qubit density matrix with X-shaped support.

    Basis order (|++>, |+->, |-+>, |-->); a, b, c, d are the diagonal,
    v couples |++> with |-->, u couples |+-> with |-+>.
    """

    a: float
    b: float
    c: float
    d: float
    u: complex = 0.0
    v: complex = 0.0

    def __post_init__(self):
        vals = (self.a, self.b, self.c, self.d)
        if min(vals) < -1e-12:
            raise BadSpec(f"negative diagonal entry in {vals}")
        if abs(sum(vals) - 1.0) > 1e-10:
            raise BadSpec(f"diagonal entries sum to {sum(vals)!r}, expected 1")
        if abs(self.u) > math.sqrt(max(0.0, self.b * self.c)) + 1e-12:
            raise BadSpec("|u| exceeds sqrt(bc); matrix not positive")
        if abs(self.v) > math.sqrt(max(0.0, self.a * self.d)) + 1e-12:
            raise BadSpec("|v| exceeds sqrt(ad); matrix not positive")

    def to_matrix(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.a, self.b, self.c, self.d
        m[1, 2] = self.u
        m[2, 1] = np.conjugate(self.u)
        m[0, 3] = self.v
        m[3, 0] = np.conjugate(self.v)
        return m

    def eigenvalues(self):
        """The four closed-form eigenvalues (two 2x2 blocks)."""
        a, b, c, d, u, v = self.a, self.b, self.c, self.d, self.u, self.v
        rv = math.sqrt((a - d) ** 2 + 4.0 * abs(v) ** 2)
        ru = math.sqrt((b - c) ** 2 + 4.0 * abs(u) ** 2)
        return (
            0.5 * (a + d + rv),
            0.5 * (a + d - rv),
            0.5 * (b + c + ru),
            0.5 * (b + c - ru),
        )


def _plogp(p):
    return 0.0 if p <= 0.0 else p * math.log(p)


def _shannon(ps):
    return -sum(_plogp(p) for p in ps)


def _renyi_sum(ps, alpha):
    return sum(p**alpha for p in ps if p > 0.0)


def _pow0(base, expo):
    """base**expo with the convention 0**x = 0 (vanishing-support limit)."""
    if base <= 0.0:
        return 0.0
    return base**expo


def xstate_mi(kind, params, alpha=None):
    """Closed-form mutual information of an X-form two-qubit state.

    kinds: 'renyi' (entropy combination), 'sandwiched' (relative-entropy
    type), 'hs'.  alpha = 1 gives the common von Neumann value.
    """
    p = params
    a, b, c, d = p.a, p.b, p.c, p.d
    ma = (a + b, c + d)  # marginal of the first qubit
    mb = (a + c, b + d)
    if kind == "hs":
        val = (
            (a - ma[0] * mb[0]) ** 2
            + (b - ma[0] * mb[1]) ** 2
            + (c - ma[1] * mb[0]) ** 2
            + (d - ma[1] * mb[1]) ** 2
            + 2.0 * (abs(p.u) ** 2 + abs(p.v) ** 2)
        )
        return math.sqrt(max(0.0, val))
    if alpha is None:
        raise DomainError("entropic kinds require alpha")
    alpha = float(alpha)
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    lam = [max(0.0, x) for x in p.eigenvalues()]
    if alpha == 1.0:
        return _shannon(ma) + _shannon(mb) - _shannon(lam)
    if kind == "renyi":
        return (
            math.log(_renyi_sum(ma, alpha))
            + math.log(_renyi_sum(mb, alpha))
            - math.log(_renyi_sum(lam, alpha))
        ) / (1.0 - alpha)
    if kind == "sandwiched":
        e = (1.0 - alpha) / alpha
        ap = a * _pow0(ma[0], e) * _pow0(mb[0], e)
        bp = b * _pow0(ma[0], e) * _pow0(mb[1], e)
        cp = c * _pow0(ma[1], e) * _pow0(mb[0], e)
        dp = d * _pow0(ma[1], e) * _pow0(mb[1], e)
        cross = _pow0(ma[0] * ma[1] * mb[0] * mb[1], 0.5 * e)
        up = p.u * cross
        vp = p.v * cross
        rv = math.sqrt((ap - dp) ** 2 + 4.0 * abs(vp) ** 2)
        ru = math.sqrt((bp - cp) ** 2 + 4.0 * abs(up) ** 2)
        lamp = (
            0.5 * (ap + dp + rv),
            0.5 * (ap + dp - rv),
            0.5 * (bp + cp + ru),
            0.5 * (bp + cp - ru),
        )
        return math.log(_renyi_sum(lamp, alpha)) / (alpha - 1.0)
    raise ValueError(f"unknown xstate_mi kind {kind!r}")


def ecs_to_xstate(gamma, eta):
    """Lossy entangled coherent state in the attenuated-cat qubit basis.

    The loss channel keeps the state inside span{|+'>, |-'>} per mode, so
    it is exactly a two-qubit X state: a Bell-type branch populating the
    anti-correlated sector and an even branch populating the correlated one.
    """
    if not float(gamma) > 0.0:
        raise DomainError("gamma must be > 0")
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta = {eta} outside [0, 1]")
    w_bell, w_even = ecs_weights(gamma, eta)
    ge = math.sqrt(eta) * float(gamma)
    norm = 2.0 * math.sqrt(cat_norms(2.0 * ge * ge)[0])
    big_a, big_b = (n / norm for n in cat_norms(ge * ge))
    return XStateParams(
        a=w_even * big_a * big_a,
        b=0.5 * w_bell,
        c=0.5 * w_bell,
        d=w_even * big_b * big_b,
        u=0.5 * w_bell,
        v=w_even * big_a * big_b,
    )

