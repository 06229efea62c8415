"""Group prevalences and precision at k."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import KOutOfRange, NotSorted, TooFewGroups


@dataclass(frozen=True)
class GroupCounts:
    """Size and positive count for one (possibly intersectional) group."""

    group_key: str
    n: int
    p_count: int

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("group size must be positive")
        if not 0 <= self.p_count <= self.n:
            raise ValueError("positive count must lie in [0, n]")

    @property
    def prevalence(self) -> float:
        return self.p_count / self.n


def expected_ppv_at_k(calibrated_probs: Sequence[float], k: int) -> float:
    """Mean of the first k entries of a non-increasing probability list."""
    n = len(calibrated_probs)
    if k < 1 or k > n:
        raise KOutOfRange(f"k={k} outside [1, {n}]")
    for a, b in zip(calibrated_probs, calibrated_probs[1:]):
        if b > a:
            raise NotSorted("probabilities must be non-increasing")
    return sum(calibrated_probs[:k]) / k


def max_pairwise_prevalence_diff(groups: Sequence[GroupCounts]) -> float:
    """Largest |prevalence_i - prevalence_j| over all group pairs."""
    if len(groups) < 2:
        raise TooFewGroups("need at least two groups")
    prevs = [g.prevalence for g in groups]
    return max(prevs) - min(prevs)
