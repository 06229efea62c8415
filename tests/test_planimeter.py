import json

import numpy as np
import pytest

from fairfeas.errors import DomainError
from fairfeas.planimeter import (
    MAX_G,
    CurveFamily,
    DetectorGrid,
    acc_band_family,
    estimate_area,
    estimate_to_json,
    line_family,
    required_grid_size,
)
from fairfeas.relations import RegionSpec, fairness_area_acc
from helpers import brute_force_mask


def test_grid_geometry():
    grid = DetectorGrid(g=11)
    assert grid.spacing == pytest.approx(0.1)
    assert grid.radius == pytest.approx(0.05)


def test_grid_minimum_size():
    with pytest.raises(DomainError):
        DetectorGrid(g=2)


def test_required_grid_size():
    assert required_grid_size(6, 0.05) == 120
    assert required_grid_size(2, 0.05) == 40
    assert required_grid_size(1, 0.9) == 3  # clamped to the minimum
    with pytest.raises(DomainError):
        required_grid_size(0, 0.05)
    with pytest.raises(DomainError):
        required_grid_size(6, 0.0)


@pytest.mark.parametrize("g", [10, 40, 120])
def test_half_square_fraction(g):
    grid = DetectorGrid(g=g)
    est, _ = estimate_area(grid, line_family(1.0, [0.0]), fill="below")
    assert abs(est.fraction - 0.5) <= 1.0 / g


def test_fill_above_complements_below():
    grid = DetectorGrid(g=25)
    fam = line_family(1.0, [0.0])
    below, _ = estimate_area(grid, fam, fill="below")
    above, _ = estimate_area(grid, fam, fill="above")
    # the diagonal detectors are counted by both sides
    diag = grid.g
    assert below.satisfied + above.satisfied == grid.g**2 + diag


def test_acc_band_against_closed_form():
    spec = RegionSpec(gamma=0.05, eps_p=0.2, p=0.3)
    grid = DetectorGrid(g=120)
    c_max = min(2 * spec.gamma / abs(spec.eps_p), 1.0)
    fam = acc_band_family(c_max, grid.spacing)
    est, _ = estimate_area(grid, fam)
    assert abs(est.fraction - fairness_area_acc(spec)) <= 2.0 / grid.g


def test_curve_points_outside_square_ignored():
    grid = DetectorGrid(g=15)
    fam = CurveFamily(evaluator=lambda x, theta: x + 5.0, thetas=[()])
    est, mask = estimate_area(grid, fam)
    assert est.satisfied == 0
    assert not mask.any()


def test_fill_dominates_when_curve_above_square():
    grid = DetectorGrid(g=15)
    fam = CurveFamily(evaluator=lambda x, theta: np.full_like(x, 5.0), thetas=[()])
    est, _ = estimate_area(grid, fam, fill="below")
    assert est.fraction == 1.0


def test_mask_shape_and_orientation():
    grid = DetectorGrid(g=9)
    est, mask = estimate_area(grid, line_family(0.0, [0.0]), fill="below")
    assert mask.shape == (9, 9)
    # y = 0 with fill below satisfies exactly the bottom row of detectors
    assert mask[:, 0].all()
    assert est.satisfied == mask.sum()


def test_estimate_json_fields():
    grid = DetectorGrid(g=10)
    est, _ = estimate_area(grid, line_family(1.0, [0.0]), fill="below")
    payload = json.loads(estimate_to_json(est, grid.g))
    assert payload["g"] == 10
    assert payload["satisfied"] == est.satisfied
    assert payload["fraction"] == pytest.approx(est.fraction)


SINES = CurveFamily(
    evaluator=lambda x, theta: 0.5 + theta[0] * np.sin(6.0 * x + theta[1]),
    thetas=[(0.1, 0.0), (0.3, 1.3), (0.45, 2.0)],
)
MASK_CASES = {
    # name: grid -> (family, fill)
    "line:y=x": lambda grid: (line_family(1.0, [0.0]), "curve-only"),
    "y=0 fill below": lambda grid: (line_family(0.0, [0.0]), "below"),
    "y=x fill above": lambda grid: (line_family(1.0, [0.0]), "above"),
    "acc-band 0.05": lambda grid: (acc_band_family(0.05, grid.radius), "curve-only"),
    "acc-band 0.25": lambda grid: (acc_band_family(0.25, grid.radius), "curve-only"),
    "acc-band 0.5": lambda grid: (acc_band_family(0.5, grid.radius), "curve-only"),
    "acc-band 1.0": lambda grid: (acc_band_family(1.0, grid.radius), "curve-only"),
    "sines fill below": lambda grid: (SINES, "below"),
    "sines fill above": lambda grid: (SINES, "above"),
    "clipped lines": lambda grid: (line_family(2.0, [-0.5, 0.3]), "below"),
    "slope 0.5 lines": lambda grid: (line_family(0.5, [0.1, 0.37]), "curve-only"),
    "outside the square": lambda grid: (
        CurveFamily(evaluator=lambda x, theta: x + 5.0, thetas=[()]), "curve-only"
    ),
    "above the square, fill below": lambda grid: (
        CurveFamily(evaluator=lambda x, theta: np.full_like(x, 5.0), thetas=[()]), "below"
    ),
}
# the brute-force oracle costs g^2 x points per curve: wide bands only below g=120
WIDE_BANDS = {"acc-band 0.25", "acc-band 0.5", "acc-band 1.0"}


@pytest.mark.parametrize(
    "case,g",
    [
        (case, g)
        for case in MASK_CASES
        for g in (3, 9, 40, 120, 121)
        if g < 120 or case not in WIDE_BANDS
    ],
)
def test_mask_matches_brute_force(case, g):
    grid = DetectorGrid(g=g)
    fam, fill = MASK_CASES[case](grid)
    est, mask = estimate_area(grid, fam, fill=fill)
    expected = brute_force_mask(grid, fam, fill=fill)
    assert mask.shape == expected.shape == (g, g)
    assert np.array_equal(mask, expected)
    assert est.satisfied == int(expected.sum())


def test_grid_size_limit_rejected_before_allocation():
    assert DetectorGrid(g=MAX_G).g == MAX_G  # constructing allocates nothing
    with pytest.raises(DomainError):
        DetectorGrid(g=MAX_G + 1)
