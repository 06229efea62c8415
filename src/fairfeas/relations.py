"""Closed-form relations between group metrics under relaxed parity.

Sign convention throughout: group-2 quantities equal group-1 quantities
plus the corresponding epsilon (p2 = p1 + eps_p, and so on). Each
balance equation is written once, as a residual function, and the
solver for its root is derived from that form, so the two cannot drift
apart and the convention is testable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, SingularDenominator, ZeroEpsP


def _check_open_unit(name: str, x: float):
    if not 0.0 < x < 1.0:
        raise DomainError(f"{name} must lie in (0, 1), got {x}")


def _check_prevalences(p: float, eps_p: float):
    """Both group prevalences, p and p2 = p + eps_p, lie in (0, 1)."""
    _check_open_unit("p", p)
    _check_open_unit("p + eps_p", p + eps_p)


@dataclass(frozen=True)
class AccRelaxation:
    """Tolerances for the FPR/FNR/ACC parity relaxation between two groups."""

    eps_fpr: float
    eps_fnr: float
    eps_acc: float
    eps_p: float
    p: float

    def __post_init__(self):
        _check_prevalences(self.p, self.eps_p)
        for name in ("eps_fpr", "eps_fnr", "eps_acc", "eps_p"):
            v = getattr(self, name)
            if not -1.0 < v < 1.0:
                raise DomainError(f"{name} must lie in (-1, 1), got {v}")
        if self.eps_p == 0.0:
            raise ZeroEpsP("equal-prevalence case is excluded")


@dataclass(frozen=True)
class PpvRelaxation:
    """Tolerances for the FPR/FNR/PPV parity relaxation between two groups."""

    eps_fpr: float
    eps_fnr: float
    eps_v: float
    eps_p: float
    p: float
    v: float

    def __post_init__(self):
        _check_prevalences(self.p, self.eps_p)
        _check_open_unit("v", self.v)
        for name in ("eps_fpr", "eps_fnr", "eps_v", "eps_p"):
            val = getattr(self, name)
            if not -1.0 < val < 1.0:
                raise DomainError(f"{name} must lie in (-1, 1), got {val}")
        if not 0.0 < self.v + self.eps_v < 1.0:
            raise DomainError("v + eps_v must lie in (0, 1)")


@dataclass(frozen=True)
class RegionSpec:
    """Symmetric tolerance gamma plus the prevalence context (p, eps_p)."""

    gamma: float
    eps_p: float
    p: float

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise DomainError(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.eps_p == 0.0:
            raise ZeroEpsP("equal-prevalence case is excluded")
        _check_prevalences(self.p, self.eps_p)


def relaxed_fnr_acc(r: AccRelaxation, fpr1: float) -> float:
    """Group-1 FNR that balances accuracies under the given tolerances.

    The balance is linear in fnr1 with slope eps_p, so the root is read
    off the residual at fnr1 = 0. The result may fall outside [0, 1];
    callers clip against the unit square when plotting.
    """
    return -residual_acc_balance(r, fpr1, 0.0) / r.eps_p


def residual_acc_balance(r: AccRelaxation, fpr1: float, fnr1: float) -> float:
    """LHS - RHS of the accuracy balance at (fpr1, fnr1); zero on the region."""
    lhs = (1.0 - fnr1) * r.p + (1.0 - fpr1) * (1.0 - r.p)
    p2 = r.p + r.eps_p
    rhs = (
        (1.0 - fnr1 - r.eps_fnr) * p2
        + (1.0 - fpr1 - r.eps_fpr) * (1.0 - p2)
        + r.eps_acc
    )
    return lhs - rhs


def fairness_area_acc(spec: RegionSpec) -> float:
    """Closed-form area of the FPR/FNR/ACC fairness region in the unit square.

    With c = min(2*gamma/|eps_p|, 1) the area is 2c - c^2, which reduces
    to 4*gamma/eps_p - 4*gamma^2/eps_p^2 while 2*gamma <= |eps_p|. The
    clamp at c = 1 keeps the band inside the square (saturation).
    """
    c = min(2.0 * spec.gamma / abs(spec.eps_p), 1.0)
    return 2.0 * c - c * c


def _ppv_balance(r: PpvRelaxation) -> tuple[int, int, int]:
    """Integers (a, b, d), d > 0, with PPV balance(beta) = (a + b*beta) / d.

    The balance is LHS - RHS of P (1 - beta) = Q (1 - beta - eps_fnr) + eps_fpr,
    where P = p/(1-p) * (1-v)/v and Q is the same product at p2 = p + eps_p
    and v2 = v + eps_v, so a = P - Q (1 - eps_fnr) - eps_fpr and b = Q - P.
    It is evaluated exactly on the binary values of the inputs (each float
    is n/d with d a power of two).
    """
    (pn, pd), (vn, vd) = r.p.as_integer_ratio(), r.v.as_integer_ratio()
    (en, ed), (wn, wd) = r.eps_p.as_integer_ratio(), r.eps_v.as_integer_ratio()
    (fn, fd), (an, ad) = r.eps_fnr.as_integer_ratio(), r.eps_fpr.as_integer_ratio()
    qn, qd = pn * ed + en * pd, pd * ed  # p2 = p + eps_p
    un, ud = vn * wd + wn * vd, vd * wd  # v2 = v + eps_v
    p_num, p_den = pn * (vd - vn), (pd - pn) * vn  # P
    q_num, q_den = qn * (ud - un), (qd - qn) * un  # Q
    a = (p_num * q_den * fd - q_num * p_den * (fd - fn)) * ad - an * p_den * q_den * fd
    b = (q_num * p_den - p_num * q_den) * fd * ad
    return a, b, p_den * q_den * fd * ad


def relaxed_fnr_ppv(r: PpvRelaxation) -> float:
    """Group-1 FNR (beta) solving the relaxed PPV balance equation.

    The root -a/b of the exact balance is rounded once. Raises
    SingularDenominator when b is exactly 0 (e.g. eps_p = eps_v = 0, where
    any beta or none satisfies the constraint) or the root lies beyond the
    float range, and when (1 - p2) * v2 is so near 0 that the residual at
    the rounded root exceeds 1e-9. The result may fall outside [0, 1].
    """
    a, b, d = _ppv_balance(r)
    if b == 0:
        raise SingularDenominator("the PPV balance does not depend on beta")
    try:
        beta = -a / b  # int / int rounds once
    except OverflowError:
        raise SingularDenominator("the root of the PPV balance exceeds the float range") from None
    bn, bd = beta.as_integer_ratio()
    if abs(a * bd + b * bn) * 10**9 > d * bd:
        raise SingularDenominator("the residual at the rounded root exceeds 1e-9")
    return beta


def residual_ppv_balance(r: PpvRelaxation, beta: float) -> float:
    """LHS - RHS of the relaxed PPV balance at beta; zero at the solver's root.

    Evaluated exactly and rounded once, for a finite beta. Near a singular
    balance beta runs into the thousands or beyond, where the rounding of
    a float evaluation alone would exceed 1e-9.
    """
    a, b, d = _ppv_balance(r)
    bn, bd = beta.as_integer_ratio()
    return (a * bd + b * bn) / (d * bd)  # int / int rounds once
