"""Closed-form relations between group metrics under relaxed parity.

Sign convention throughout: group-2 quantities equal group-1 quantities
plus the corresponding epsilon (p2 = p1 + eps_p, and so on). Every
solved-for quantity is anchored by a residual function that evaluates
the underlying balance equation directly, so the convention is testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SingularDenominator, ZeroEpsP

#: Denominators below this magnitude are treated as singular.
DEFAULT_SINGULARITY_THRESHOLD = 1e-12


def _check_open_unit(name: str, x: float):
    if not 0.0 < x < 1.0:
        raise DomainError(f"{name} must lie in (0, 1), got {x}")


@dataclass(frozen=True)
class AccRelaxation:
    """Tolerances for the FPR/FNR/ACC parity relaxation between two groups."""

    eps_fpr: float
    eps_fnr: float
    eps_acc: float
    eps_p: float
    p: float

    def __post_init__(self):
        _check_open_unit("p", self.p)
        for name in ("eps_fpr", "eps_fnr", "eps_acc", "eps_p"):
            v = getattr(self, name)
            if not -1.0 < v < 1.0:
                raise DomainError(f"{name} must lie in (-1, 1), got {v}")
        if self.eps_p == 0.0:
            raise ZeroEpsP("equal-prevalence case is excluded")
        if not 0.0 < self.p + self.eps_p < 1.0:
            raise DomainError("p + eps_p must lie in (0, 1)")


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
        _check_open_unit("p", self.p)
        _check_open_unit("v", self.v)
        for name in ("eps_fpr", "eps_fnr", "eps_v", "eps_p"):
            val = getattr(self, name)
            if not -1.0 < val < 1.0:
                raise DomainError(f"{name} must lie in (-1, 1), got {val}")
        if not 0.0 < self.p + self.eps_p < 1.0:
            raise DomainError("p + eps_p must lie in (0, 1)")
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
        _check_open_unit("p", self.p)
        if not self.eps_p < 1.0 - self.p:
            raise DomainError("eps_p must be < 1 - p")


@dataclass(frozen=True)
class OffsetBounds:
    """Extreme values of the FPR - FNR offset achievable within gamma."""

    c_max: float
    c_min: float


def fpr_from_relation(p: float, ppv: float, fnr: float) -> float:
    """FPR implied by prevalence, PPV, and FNR.

    The caller must check the result is <= 1 for realizability.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0, 1), got {p}")
    if not 0.0 < ppv <= 1.0:
        raise DomainError(f"ppv must lie in (0, 1], got {ppv}")
    if not 0.0 <= fnr <= 1.0:
        raise DomainError(f"fnr must lie in [0, 1], got {fnr}")
    return (p / (1.0 - p)) * ((1.0 - ppv) / ppv) * (1.0 - fnr)


def acc_identity(p: float, fnr: float, fpr: float) -> float:
    """Accuracy as the prevalence-weighted mix of the two true rates."""
    for name, v in (("p", p), ("fnr", fnr), ("fpr", fpr)):
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"{name} must lie in [0, 1], got {v}")
    return (1.0 - fnr) * p + (1.0 - fpr) * (1.0 - p)


def relaxed_fnr_acc(r: AccRelaxation, fpr1: float) -> float:
    """Group-1 FNR that balances accuracies under the given tolerances.

    The result may fall outside [0, 1]; callers clip against the unit
    square when plotting.
    """
    return (
        -r.eps_fpr
        + r.eps_acc
        + r.eps_fpr * r.p
        - r.eps_fnr * r.p
        + fpr1 * r.eps_p
        + r.eps_fpr * r.eps_p
        - r.eps_fnr * r.eps_p
    ) / r.eps_p


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


def offset_bounds(spec: RegionSpec) -> OffsetBounds:
    """Extremes of c = FPR - FNR over the tolerance box [-gamma, gamma]^3."""
    c_max = 2.0 * spec.gamma / abs(spec.eps_p)
    return OffsetBounds(c_max=c_max, c_min=-c_max)


def fairness_area_acc(spec: RegionSpec) -> float:
    """Closed-form area of the FPR/FNR/ACC fairness region in the unit square.

    With c = min(2*gamma/|eps_p|, 1) the area is 2c - c^2, which reduces
    to 4*gamma/eps_p - 4*gamma^2/eps_p^2 while 2*gamma <= |eps_p|. The
    clamp at c = 1 keeps the band inside the square (saturation).
    """
    c = min(offset_bounds(spec).c_max, 1.0)
    return 2.0 * c - c * c


def relaxed_fnr_ppv(
    r: PpvRelaxation, singularity_threshold: float = DEFAULT_SINGULARITY_THRESHOLD
) -> float:
    """Group-1 FNR (beta) solving the relaxed PPV balance equation.

    Raises SingularDenominator when the governing denominator vanishes
    (e.g. eps_p = eps_v = 0, where the constraint degenerates and any
    beta satisfies it), or when (1 - p2) * v2 is so near 0 that half a float
    step of beta moves the residual past 1e-9. The result may fall outside [0, 1].
    """
    p, v = r.p, r.v
    ea, eb, ev, ep = r.eps_fpr, r.eps_fnr, r.eps_v, r.eps_p
    den = ep * (p * ev - v * v - v * ev + v) + (p - 1.0) * p * ev
    if abs(den) <= singularity_threshold:
        raise SingularDenominator(f"denominator {den} below threshold")
    num = (
        ep * (v * v * (ea * (p - 1.0) - 1.0) + v * ev * (ea * (p - 1.0) - 1.0) + p * ev + v)
        + (p - 1.0) * (ea * (p - 1.0) * v * (v + ev) + p * ev)
        - eb * (p - 1.0) * v * (p + ep) * (v + ev - 1.0)
    )
    beta = num / den
    # The balance is exactly linear in beta, so one Newton step removes
    # the floating-point cancellation left by the closed-form quotient.
    r0 = residual_ppv_balance(r, 0.0)
    slope = residual_ppv_balance(r, 1.0) - r0
    if slope != 0.0 and math.isfinite(beta):
        beta -= residual_ppv_balance(r, beta) / slope
        if abs(slope) * math.ulp(beta) / 2 > 1e-9:
            raise SingularDenominator(f"residual slope {slope} in beta exceeds float resolution")
    return beta


def residual_ppv_balance(r: PpvRelaxation, beta: float) -> float:
    """LHS - RHS of the relaxed PPV balance at beta; oracle for the solver.

    Evaluated exactly on the binary values of the inputs (each float is
    n/d with d a power of two) and rounded once, for a finite beta. Near
    a singular balance beta runs into the thousands or beyond, where the
    rounding of a float evaluation alone would exceed 1e-9.
    """
    (pn, pd), (vn, vd), (bn, bd) = (x.as_integer_ratio() for x in (r.p, r.v, beta))
    (en, ed), (wn, wd) = r.eps_p.as_integer_ratio(), r.eps_v.as_integer_ratio()
    (fn, fd), (an, ad) = r.eps_fnr.as_integer_ratio(), r.eps_fpr.as_integer_ratio()
    qn, qd = pn * ed + en * pd, pd * ed  # p2 = p + eps_p
    un, ud = vn * wd + wn * vd, vd * wd  # v2 = v + eps_v
    # lhs = p/(1-p) * (1-v)/v * (1-beta)
    ln, ld = pn * (vd - vn) * (bd - bn), (pd - pn) * vn * bd
    # rhs = p2/(1-p2) * (1-v2)/v2 * (1-beta-eps_fnr) + eps_fpr
    rn = qn * (ud - un) * ((bd - bn) * fd - fn * bd)
    rd = (qd - qn) * un * bd * fd
    rn, rd = rn * ad + an * rd, rd * ad
    return (ln * rd - rn * ld) / (ld * rd)  # int / int rounds once
