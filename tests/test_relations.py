import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairfeas.errors import DomainError, SingularDenominator, ZeroEpsP
from fairfeas.relations import (
    AccRelaxation,
    PpvRelaxation,
    RegionSpec,
    fairness_area_acc,
    relaxed_fnr_acc,
    relaxed_fnr_ppv,
    residual_acc_balance,
    residual_ppv_balance,
)

from helpers import ppv_balance_oracle

unit_open = st.floats(0.05, 0.95)
small_eps = st.floats(-0.2, 0.2)


def acc_relaxations():
    return st.builds(
        dict,
        p=unit_open,
        eps_p=st.floats(0.01, 0.3) | st.floats(-0.3, -0.01),
        eps_fpr=small_eps,
        eps_fnr=small_eps,
        eps_acc=small_eps,
    ).filter(lambda d: 0.0 < d["p"] + d["eps_p"] < 1.0).map(lambda d: AccRelaxation(
        eps_fpr=d["eps_fpr"], eps_fnr=d["eps_fnr"], eps_acc=d["eps_acc"],
        eps_p=d["eps_p"], p=d["p"],
    ))


def ppv_relaxations():
    return st.builds(
        dict,
        p=unit_open,
        v=unit_open,
        eps_p=small_eps,
        eps_v=small_eps,
        eps_fpr=small_eps,
        eps_fnr=small_eps,
    ).filter(
        lambda d: 0.0 < d["p"] + d["eps_p"] < 1.0 and 0.0 < d["v"] + d["eps_v"] < 1.0
    ).map(lambda d: PpvRelaxation(
        eps_fpr=d["eps_fpr"], eps_fnr=d["eps_fnr"], eps_v=d["eps_v"],
        eps_p=d["eps_p"], p=d["p"], v=d["v"],
    ))


def test_relaxed_fnr_acc_known_point():
    r = AccRelaxation(eps_fpr=0.0, eps_fnr=0.0, eps_acc=0.1, eps_p=0.2, p=0.3)
    assert math.isclose(relaxed_fnr_acc(r, fpr1=0.2), 0.7, abs_tol=1e-12)


def test_acc_relaxation_rejects_zero_eps_p():
    with pytest.raises(ZeroEpsP):
        AccRelaxation(eps_fpr=0.0, eps_fnr=0.0, eps_acc=0.0, eps_p=0.0, p=0.5)


@given(acc_relaxations(), st.floats(0.0, 1.0))
@settings(max_examples=300)
def test_acc_solution_zeroes_residual(r, fpr1):
    fnr1 = relaxed_fnr_acc(r, fpr1)
    assert abs(residual_acc_balance(r, fpr1, fnr1)) < 1e-9


def test_area_formula_value():
    assert fairness_area_acc(RegionSpec(gamma=0.05, eps_p=0.2, p=0.3)) == pytest.approx(0.75)


def test_area_saturates_at_one():
    assert fairness_area_acc(RegionSpec(gamma=0.05, eps_p=0.1, p=0.3)) == pytest.approx(1.0)


def test_area_matches_unclamped_form_when_small():
    spec = RegionSpec(gamma=0.03, eps_p=0.25, p=0.3)
    g, e = spec.gamma, spec.eps_p
    assert fairness_area_acc(spec) == pytest.approx(4 * g / e - 4 * g * g / (e * e))


@given(st.floats(0.001, 0.2), st.floats(0.01, 0.45))
def test_area_within_unit_interval(gamma, eps_p):
    area = fairness_area_acc(RegionSpec(gamma=gamma, eps_p=eps_p, p=0.5))
    assert 0.0 < area <= 1.0


def test_region_spec_domain_checks():
    with pytest.raises(ZeroEpsP):
        RegionSpec(gamma=0.1, eps_p=0.0, p=0.5)
    with pytest.raises(DomainError):
        RegionSpec(gamma=0.0, eps_p=0.1, p=0.5)
    with pytest.raises(DomainError):
        RegionSpec(gamma=0.1, eps_p=0.6, p=0.5)
    with pytest.raises(DomainError):
        RegionSpec(gamma=0.05, eps_p=-0.6, p=0.5)  # p2 = -0.1


def test_relaxed_fnr_ppv_degenerate_tolerances():
    # all tolerances zero except a prevalence gap: only beta = 1 balances
    r = PpvRelaxation(eps_fpr=0.0, eps_fnr=0.0, eps_v=0.0, eps_p=0.2, p=0.3, v=0.5)
    assert math.isclose(relaxed_fnr_ppv(r), 1.0, abs_tol=1e-12)


def test_relaxed_fnr_ppv_known_point():
    r = PpvRelaxation(eps_fpr=0.05, eps_fnr=0.0, eps_v=0.1, eps_p=0.0, p=0.5, v=0.5)
    assert math.isclose(relaxed_fnr_ppv(r), 0.85, abs_tol=1e-12)


def test_relaxed_fnr_ppv_singular():
    r = PpvRelaxation(eps_fpr=0.1, eps_fnr=0.1, eps_v=0.0, eps_p=0.0, p=0.4, v=0.6)
    with pytest.raises(SingularDenominator):
        relaxed_fnr_ppv(r)


# p + eps_p and v + eps_v sit 1.5e-16 below 1 and 2.8e-17 above 0: one float
# step of beta near 0.875 moves the residual by about 0.7 and 4
EDGE_PPV_RELAXATIONS = [
    PpvRelaxation(eps_fpr=0.0, eps_fnr=0.125, eps_v=0.0, eps_p=0.05, p=0.9499999999999998, v=0.5),
    PpvRelaxation(eps_fpr=0.0, eps_fnr=0.125, eps_v=-0.19999999999999998, eps_p=0.0, p=0.5, v=0.2),
]


# p2 = 0.5 + eps_p, so the slope Q - P in beta is about 4 * eps_p: tiny, not 0
@pytest.mark.parametrize("eps_fpr, eps_p, beta", [(0.0, 5e-324, 1.0), (0.1, 1e-300, 2.5e298)])
def test_relaxed_fnr_ppv_tiny_prevalence_gap(eps_fpr, eps_p, beta):
    r = PpvRelaxation(eps_fpr=eps_fpr, eps_fnr=0.0, eps_v=0.0, eps_p=eps_p, p=0.5, v=0.5)
    assert relaxed_fnr_ppv(r) == beta
    assert abs(residual_ppv_balance(r, beta)) < 1e-9


def test_relaxed_fnr_ppv_root_beyond_float_range():
    # the root is about 0.025 / eps_p = 5e321
    r = PpvRelaxation(eps_fpr=0.1, eps_fnr=0.0, eps_v=0.0, eps_p=5e-324, p=0.5, v=0.5)
    with pytest.raises(SingularDenominator):
        relaxed_fnr_ppv(r)


@pytest.mark.parametrize("r", EDGE_PPV_RELAXATIONS)
def test_relaxed_fnr_ppv_rejects_balance_steeper_than_float_resolution(r):
    with pytest.raises(SingularDenominator):
        relaxed_fnr_ppv(r)


@given(ppv_relaxations())
@settings(max_examples=300)
# near-singular: beta is about -1.6e9, where a float residual is off by 2e-6
@example(PpvRelaxation(eps_fpr=0.0, eps_fnr=0.171875, eps_v=0.0, eps_p=2.5982755439901184e-11, p=0.609375, v=0.171875))
@example(EDGE_PPV_RELAXATIONS[0])
@example(EDGE_PPV_RELAXATIONS[1])
def test_ppv_solution_zeroes_residual(r):
    try:
        beta = relaxed_fnr_ppv(r)
    except SingularDenominator:
        return
    assert abs(residual_ppv_balance(r, beta)) < 1e-9


@given(ppv_relaxations(), st.floats(-2.0, 2.0))
@settings(max_examples=300)
@example(EDGE_PPV_RELAXATIONS[0], 0.875)
@example(EDGE_PPV_RELAXATIONS[1], 0.875)
def test_ppv_balance_matches_fraction_oracle(r, beta):
    assert residual_ppv_balance(r, beta) == float(ppv_balance_oracle(r, beta))
    a = ppv_balance_oracle(r, 0.0)
    b = ppv_balance_oracle(r, 1.0) - a
    try:
        root = relaxed_fnr_ppv(r)
    except SingularDenominator:
        # b is 0, the root overflows, or the rounded root misses by over 1e-9
        if b != 0:
            try:
                rounded = float(-a / b)
            except OverflowError:
                return
            assert abs(ppv_balance_oracle(r, rounded)) > Fraction(1, 10**9)
        return
    assert root == float(-a / b)
