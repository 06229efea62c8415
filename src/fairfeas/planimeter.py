"""Dot-planimeter area estimation over the unit square.

A regular g x g lattice of detectors covers [0, 1]^2 (corner detectors
on the axes). A detector is satisfied when a member of a curve family
passes within its radius, or, for filled estimates, when it lies on the
filled side of any curve. The satisfied fraction of the g^2 detectors
estimates the region's area.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .errors import DomainError

FillMode = Literal["below", "above", "curve-only"]
MAX_G = 4096


@dataclass(frozen=True)
class DetectorGrid:
    """g x g detector lattice with spacing 1/(g-1) and radius spacing/2.

    3 <= g <= MAX_G: 2**24 detectors take a 16 MiB mask, and each curve
    marks O(g) detectors (all g^2 with a fill), so a larger g is rejected
    before any allocation.
    """

    g: int

    def __post_init__(self):
        if not 3 <= self.g <= MAX_G:
            raise DomainError(f"g must lie in [3, {MAX_G}], got {self.g}")

    @property
    def spacing(self) -> float:
        return 1.0 / (self.g - 1)

    @property
    def radius(self) -> float:
        return self.spacing / 2.0


@dataclass(frozen=True)
class CurveFamily:
    """A parametrized family y = evaluator(x, theta) over a finite theta grid.

    Curve points falling outside [0, 1]^2 are ignored (never clamped).
    """

    evaluator: Callable[[np.ndarray, tuple], np.ndarray]
    thetas: Sequence[tuple]


@dataclass(frozen=True)
class PlanimeterEstimate:
    satisfied: int
    total: int

    @property
    def fraction(self) -> float:
        return self.satisfied / self.total


def required_grid_size(b: int, err: float) -> int:
    """Smallest detector-per-side count with error bound b/g <= err.

    Clamped up to the module minimum of 3 detectors per side.
    """
    if b < 1:
        raise DomainError(f"b must be >= 1, got {b}")
    if not 0.0 < err < 1.0:
        raise DomainError(f"err must lie in (0, 1), got {err}")
    return max(3, math.ceil(b / err))


def estimate_area(
    grid: DetectorGrid,
    fam: CurveFamily,
    fill: FillMode = "curve-only",
) -> tuple[PlanimeterEstimate, np.ndarray]:
    """Satisfied-detector count for the family, plus the boolean mask.

    Each curve is sampled every r/2 in x, where r = grid.radius, and a
    detector within r of a sample is satisfied. fill="below"/"above"
    additionally satisfies detectors on that side of any curve. The
    count's fraction of all detectors estimates the fraction of the unit
    square.
    Returns (estimate, mask) with mask shaped (g, g), indexed [ix, iy].
    """
    r = grid.radius
    step = r / 2.0
    g, h = grid.g, grid.spacing
    axis = np.linspace(0.0, 1.0, g)
    satisfied = np.zeros(g * g, dtype=bool)
    by_cell = satisfied.reshape(g, g)  # view indexed [ix, iy]
    reach = math.ceil(r / h) + 1  # a detector within r is <= ceil(r/h) cells away; +1 for rounding
    offsets = np.arange(-reach, reach + 1)

    xs = np.clip(np.arange(0.0, 1.0 + step / 2.0, step), 0.0, 1.0)
    for theta in fam.thetas:
        ys = np.asarray(fam.evaluator(xs, theta), dtype=float)
        inside = (ys >= 0.0) & (ys <= 1.0)
        px, py = xs[inside], ys[inside]
        ix = np.clip(np.floor(px / h).astype(np.intp)[:, None] + offsets, 0, g - 1)[:, :, None]
        iy = np.clip(np.floor(py / h).astype(np.intp)[:, None] + offsets, 0, g - 1)[:, None, :]
        d2 = (axis[ix] - px[:, None, None]) ** 2 + (axis[iy] - py[:, None, None]) ** 2
        hit = np.sqrt(d2) <= r + 1e-12
        satisfied[(ix * g + iy)[hit]] = True
        if fill != "curve-only":
            y_at = np.asarray(fam.evaluator(axis, theta), dtype=float)[:, None]  # per ix
            by_cell |= axis <= y_at if fill == "below" else axis >= y_at
        if satisfied.all():
            break

    return PlanimeterEstimate(satisfied=int(satisfied.sum()), total=g**2), by_cell


def estimate_to_json(est: PlanimeterEstimate, g: int) -> str:
    return json.dumps({"g": g, "satisfied": est.satisfied, "fraction": est.fraction})


def line_family(slope: float, intercepts: Sequence[float]) -> CurveFamily:
    """Family of lines y = slope * x + c over the given intercepts."""
    return CurveFamily(
        evaluator=lambda x, theta: slope * x + theta[0],
        thetas=[(c,) for c in intercepts],
    )


def acc_band_family(c_max: float, spacing: float) -> CurveFamily:
    """Unit-slope lines y = x + c sweeping c over [-c_max, c_max].

    The sweep step is at most `spacing` so the band interior is covered.
    """
    if c_max < 0:
        raise DomainError("c_max must be >= 0")
    n = max(2, math.ceil(2.0 * c_max / spacing) + 1)
    return line_family(1.0, np.linspace(-c_max, c_max, n))
