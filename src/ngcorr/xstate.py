"""Closed-form mutual informations for X-form two-qubit states, plus the
lossy entangled coherent state as an X state in the attenuated cat basis.

The mutual informations serve as independent oracles against the Fock-basis
numerics; ``ecs_to_xstate`` is also the one closed form of the lossy ECS,
which ``channels.ecs_loss_analytic`` embeds in Fock space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, DomainError, check_eta
from .gaussian import CLOSED_FORM_KINDS, bures_metric, mi_kind


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


def _x_eigenvalues(a, b, c, d, u, v):
    """The four eigenvalues of an X matrix: those of its 2x2 blocks
    [[a, v], [v*, d]] and [[b, u], [u*, c]]."""
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
    """sum p^alpha over the numerical rank (``fock.Spectrum.rank_floor``'s
    rule): a root that rounding leaves at O(eps) would add eps^alpha."""
    floor = len(ps) * np.finfo(float).eps * max(ps)
    return sum(p**alpha for p in ps if p > floor)


def _pow0(base, expo):
    """base**expo with the convention 0**x = 0 (vanishing-support limit)."""
    if base <= 0.0:
        return 0.0
    return base**expo


def xstate_mi(kind, params, alpha=None):
    """Closed-form mutual information of an X-form two-qubit state.

    kinds (``gaussian.CLOSED_FORM_KINDS``): 'vn', 'renyi', 'sandwiched',
    'hs' and 'bures', from the order-1/2 sandwiched value as in
    ``gaussian_mi``; order 1 is the common von Neumann value.
    """
    kind, alpha = mi_kind(kind, alpha, CLOSED_FORM_KINDS)
    if kind == "bures":
        return bures_metric(math.exp(-0.5 * xstate_mi("sandwiched", params, 0.5)))
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
    lam = _x_eigenvalues(a, b, c, d, p.u, p.v)
    if alpha == 1.0:
        return _shannon(ma) + _shannon(mb) - _shannon(lam)
    if kind == "renyi":
        return (
            math.log(_renyi_sum(ma, alpha))
            + math.log(_renyi_sum(mb, alpha))
            - math.log(_renyi_sum(lam, alpha))
        ) / (1.0 - alpha)
    # sandwiched
    e = (1.0 - alpha) / alpha
    ap = a * _pow0(ma[0], e) * _pow0(mb[0], e)
    bp = b * _pow0(ma[0], e) * _pow0(mb[1], e)
    cp = c * _pow0(ma[1], e) * _pow0(mb[0], e)
    dp = d * _pow0(ma[1], e) * _pow0(mb[1], e)
    cross = _pow0(ma[0] * ma[1] * mb[0] * mb[1], 0.5 * e)
    lamp = _x_eigenvalues(ap, bp, cp, dp, p.u * cross, p.v * cross)
    return math.log(_renyi_sum(lamp, alpha)) / (alpha - 1.0)


def cat_norms(nbar):
    """Squared norms (N+, N-) = 2 +- 2 exp(-2 nbar) of |x> +- |-x>, |x|^2 = nbar."""
    e = math.exp(-2.0 * nbar)
    return 2.0 + 2.0 * e, 2.0 - 2.0 * e


def ecs_weights(gamma, eta):
    """Mixture weights of the Bell-type and even/odd branches of a lossy ECS."""
    g = float(gamma)
    s = math.sqrt(2.0) * g
    gl = math.sqrt(max(0.0, 2.0 - 2.0 * eta)) * g
    gt = math.sqrt(2.0 * eta) * g
    plus_l, minus_l = cat_norms(gl * gl)
    plus_t, minus_t = cat_norms(gt * gt)
    denom = 4.0 * cat_norms(s * s)[1]
    w_bell = plus_l * minus_t / denom
    w_even = minus_l * plus_t / denom
    return w_bell, w_even


def ecs_to_xstate(gamma, eta):
    """Lossy entangled coherent state in the attenuated-cat qubit basis.

    The loss channel keeps the state inside span{|+'>, |-'>} per mode, so
    it is exactly a two-qubit X state: a Bell-type branch populating the
    anti-correlated sector and an even branch populating the correlated one.
    """
    if not float(gamma) > 0.0:
        raise DomainError("gamma must be > 0")
    check_eta(eta)
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

