import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairfeas.errors import NotSorted, TooFewGroups
from fairfeas.metrics import GroupCounts, expected_ppv_at_k, max_pairwise_prevalence_diff


def test_expected_ppv_requires_sorted():
    with pytest.raises(NotSorted):
        expected_ppv_at_k([0.2, 0.9], 1)


@given(
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=50).map(
        lambda xs: sorted(xs, reverse=True)
    )
)
@settings(max_examples=200)
def test_expected_ppv_non_increasing_in_k(probs):
    vals = [expected_ppv_at_k(probs, k) for k in range(1, len(probs) + 1)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


def test_max_pairwise_diff_known_value():
    groups = [
        GroupCounts("f", n=10000, p_count=4430),
        GroupCounts("m", n=10000, p_count=4874),
    ]
    assert math.isclose(max_pairwise_prevalence_diff(groups), 0.0444, abs_tol=1e-12)


def test_max_pairwise_diff_needs_two_groups():
    with pytest.raises(TooFewGroups):
        max_pairwise_prevalence_diff([GroupCounts("only", n=5, p_count=1)])


@given(
    st.lists(
        st.builds(
            GroupCounts,
            group_key=st.text(min_size=1, max_size=3),
            n=st.integers(1, 100),
            p_count=st.just(0),
        ).flatmap(
            lambda g: st.integers(0, g.n).map(
                lambda p: GroupCounts(g.group_key, g.n, p)
            )
        ),
        min_size=2,
        max_size=6,
    )
)
def test_max_pairwise_diff_equals_spread(groups):
    prevs = [g.prevalence for g in groups]
    assert max_pairwise_prevalence_diff(groups) == pytest.approx(
        max(prevs) - min(prevs)
    )
