"""Exhaustive enumeration of discretized feasible (FPR, FNR, PPV) triples.

On an integer grid with resolution N, a triple (alpha, beta, v) is
feasible for prevalence index p exactly when the cross-multiplied
identity alpha * d = n holds, where

    m = p * (N - v),  n = m * (N - beta),  d = v * (N - p).

This is the integer form of the relation tying FPR to (p, PPV, FNR):
alpha/N = (p/N * (1 - v/N) * (1 - beta/N)) / (v/N * (1 - p/N)).
Enumeration divides n by d over the whole (v, beta) grid at once and
keeps alpha = n/d where the division is exact and in range; where d = 0
(v = 0) and n = 0, every alpha in range is feasible. Two triples are
jointly fair at eps index e exactly when their Chebyshev distance
max(|d alpha|, |d beta|, |d v|) is at most e. Pair counting holds one
set as three bitset tables, one per coordinate, whose row c marks the
triples with that coordinate in [c - e, c + e]: a triple of the other
set has as many partners as the AND of its three rows has set bits.
Those bits are summed per prevalence set, not per triple: one
np.add.reduceat per chunk of query rows, cut at the set boundaries.
The triple sets do not depend on eps, the prevalence step, strictness
or the PPV window, so `heatmap` and `ppv_binned_counts` enumerate those
of the most recent Discretization once and keep them, read-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BadPrevalence, DomainError, OverlappingBins

#: Largest grid resolution. For n <= 400 no prevalence has more than
#: 5,773 triples (n=360, p=180, all ranges [0, n]); counting that set
#: against itself peaks at 7.2 MiB in tracemalloc, mostly the (n + 1) x M
#: buffers its tables are built from. M grows roughly as n**1.5.
MAX_N = 400
_CHUNK_WORDS = 2**14  # query rows x table words per chunk: 128 KiB a uint64 buffer


@dataclass(frozen=True)
class Discretization:
    """Index grid: metric value = idx / n. Ranges are inclusive.

    2 <= n <= MAX_N; a larger n is rejected before anything is enumerated.
    beta and v default to [0, 0.99 n] to avoid the degenerate
    perfect-prediction edge; alpha defaults to the full [0, n].
    """

    n: int = 100
    alpha_range: Optional[tuple[int, int]] = None
    beta_range: Optional[tuple[int, int]] = None
    v_range: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.n > MAX_N:
            raise DomainError(f"n={self.n} exceeds {MAX_N}")
        defaults = {
            "alpha_range": (0, self.n),
            "beta_range": (0, int(0.99 * self.n)),
            "v_range": (0, int(0.99 * self.n)),
        }
        for name, default in defaults.items():
            rng = getattr(self, name)
            if rng is None:
                object.__setattr__(self, name, default)
                rng = default
            lo, hi = rng
            if not (0 <= lo <= hi <= self.n):
                raise ValueError(f"{name}={rng} must satisfy 0 <= lo <= hi <= n")
            object.__setattr__(self, name, (lo, hi))  # a tuple keeps the instance hashable


@dataclass
class FeasibleTripleSet:
    """All feasible (alpha, beta, v) index triples for one prevalence index."""

    p_idx: int
    triples: np.ndarray  # (M, 3) int16, Fortran order, columns (alpha, beta, v)

    def __len__(self) -> int:
        return len(self.triples)


@dataclass
class PrevalenceHeatmap:
    """Joint feasible-pair counts over a grid of prevalence index pairs."""

    p_indices: list[int]
    n: int
    counts: np.ndarray  # (len(p_indices), len(p_indices)) int64, symmetric
    total: int


def enumerate_triples(p_idx: int, disc: Discretization) -> FeasibleTripleSet:
    """Triples within the ranges feasible at p_idx, sorted by (alpha, beta, v)."""
    n_res = disc.n
    if not 1 <= p_idx <= n_res - 1:
        raise BadPrevalence(f"p_idx={p_idx} must lie in [1, {n_res - 1}]")
    a_lo, a_hi = disc.alpha_range
    b_lo, b_hi = disc.beta_range
    v_lo, v_hi = disc.v_range
    v, beta = np.meshgrid(np.arange(v_lo, v_hi + 1), np.arange(b_lo, b_hi + 1), indexing="ij")
    num = p_idx * (n_res - v) * (n_res - beta)  # n = m * (N - beta)
    d = v * (n_res - p_idx)
    alpha, rem = np.divmod(num, np.maximum(d, 1))
    exact = (d > 0) & (rem == 0) & (alpha >= a_lo) & (alpha <= a_hi)
    free = (d == 0) & (num == 0)  # alpha * 0 = 0 holds for every alpha
    width = a_hi - a_lo + 1
    cols = (
        np.concatenate([alpha[exact], np.tile(np.arange(a_lo, a_hi + 1), np.count_nonzero(free))]),
        np.concatenate([beta[exact], np.repeat(beta[free], width)]),
        np.concatenate([v[exact], np.repeat(v[free], width)]),
    )
    triples = np.asfortranarray(np.column_stack(cols)[np.lexsort(cols[::-1])], dtype=np.int16)
    return FeasibleTripleSet(p_idx=p_idx, triples=triples)


def _segment_partners(
    rows: np.ndarray, starts: np.ndarray, cols: np.ndarray, eps_idx: int, height: int
) -> np.ndarray:
    """Entry s counts the pairs within eps_idx of a triple in cols and one in segment s of rows.

    cols is (M, 3); rows is (3, R) intp, one row per coordinate; every index is below height.
    starts is non-decreasing from 0: segment s is rows[:, starts[s]:starts[s + 1]], the
    last one running to R. Each chunk sums its popcounts per segment with one reduceat.
    """
    words = -(-len(cols) // 64)
    diff = np.empty((height, len(cols)), dtype=np.int16)
    bits = np.zeros((height, 64 * words), dtype=bool)  # zero pad to whole words
    tables = []
    for k in range(3):
        np.abs(np.subtract(np.arange(height, dtype=np.int16)[:, None], cols[:, k], out=diff), out=diff)
        np.less_equal(diff, min(eps_idx, height), out=bits[:, : len(cols)])  # any eps_idx >= 0
        tables.append(np.packbits(bits, axis=1, bitorder="little").view(np.uint64))
    counts = np.zeros(len(starts), dtype=np.int64)
    ends = np.append(starts[1:], rows.shape[1])
    filled = np.flatnonzero(ends > starts)  # reduceat reads a[i], not 0, at a repeated cut
    first = starts[filled]
    step = max(1, _CHUNK_WORDS // max(words, 1))
    for start in range(0, rows.shape[1] if words else 0, step):
        a, b, v = rows[:, start : start + step]
        acc = tables[0].take(a, axis=0)
        acc &= tables[1].take(b, axis=0)
        acc &= tables[2].take(v, axis=0)
        # the filled segments this chunk covers; the one holding its first row gets cut 0
        lo, hi = np.searchsorted(first, [start, start + a.size - 1], side="right")
        cuts = np.maximum(first[lo - 1 : hi] - start, 0) * words
        counts[filled[lo - 1 : hi]] += np.add.reduceat(np.bitwise_count(acc).ravel(), cuts, dtype=np.int64)
    return counts


def count_joint(sets: tuple[FeasibleTripleSet, FeasibleTripleSet], eps_idx: int) -> int:
    """Number of cross-set triple pairs within Chebyshev distance eps_idx."""
    if eps_idx < 0:
        raise ValueError(f"eps_idx must be >= 0, got {eps_idx}")
    t1, t2 = (s.triples for s in sets)  # Fortran order: t1.T is (3, M1) C-contiguous
    height = 1 + max(int(t.max(initial=0)) for t in (t1, t2))
    return int(_segment_partners(t1.T.astype(np.intp), np.zeros(1, np.intp), t2, eps_idx, height)[0])


def _pair_counts(cols: np.ndarray, sizes: Sequence[int], eps_idx: int, height: int) -> np.ndarray:
    """Entry (i, j) counts the pairs within eps_idx of a triple in set i and one in set j.

    cols is (3, sum(sizes)) int16, the sets' triples one set after another.
    """
    rows = cols.astype(np.intp)
    offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
    counts = np.zeros((len(sizes), len(sizes)), dtype=np.int64)
    for j in range(len(sizes)):  # pairs (i, j) for every i >= j in one pass
        lo, hi = offsets[j], offsets[j + 1]
        part = _segment_partners(rows[:, lo:], offsets[j:-1] - lo, cols[:, lo:hi].T, eps_idx, height)
        counts[j:, j] = counts[j, j:] = part
    return counts


@functools.lru_cache(maxsize=1)
def _triple_memo(disc: Discretization) -> dict[int, np.ndarray]:
    """p_idx -> read-only triples of enumerate_triples(p_idx, disc), filled by _grid_triples."""
    return {}


def _grid_triples(disc: Discretization, grid: Sequence[int]) -> tuple[np.ndarray, list[int]]:
    """The triple sets of grid stacked as one (3, M) int16 array, and each set's size."""
    memo = _triple_memo(disc)
    for p in grid:
        if p not in memo:
            memo[p] = enumerate_triples(p, disc).triples
            memo[p].setflags(write=False)
    sets = [memo[p] for p in grid]
    return np.concatenate([s.T for s in sets], axis=1), [len(s) for s in sets]


def _eps_index(disc: Discretization, eps_max: float, strict_eps: bool) -> int:
    if not 0.0 <= eps_max <= 1.0:
        raise ValueError(f"eps_max must lie in [0, 1], got {eps_max}")
    eps_idx = round(eps_max * disc.n)
    return max(0, eps_idx - 1) if strict_eps else eps_idx


def prevalence_grid(disc: Discretization, p_grid_step: float) -> list[int]:
    """Prevalence indices in [1, n-1] at a real-valued step in (0, 1).

    The step rounds to a whole number of indices, at least one; a step
    that rounds to n or more leaves no index and is rejected.
    """
    if not 0.0 < p_grid_step < 1.0:
        raise ValueError(f"p_grid_step must lie in (0, 1), got {p_grid_step}")
    step_idx = max(1, round(p_grid_step * disc.n))
    if step_idx >= disc.n:
        raise ValueError(f"p_grid_step={p_grid_step} leaves no prevalence at n={disc.n}")
    return list(range(step_idx, disc.n, step_idx))


def heatmap(
    disc: Discretization,
    eps_max: float,
    p_grid_step: float = 0.01,
    strict_eps: bool = False,
) -> PrevalenceHeatmap:
    """Joint feasible-pair counts for every prevalence pair on the grid.

    The PPV index runs over disc.v_range. strict_eps counts
    |difference| < eps rather than <= eps, exposed for
    encoding-sensitivity scans; where eps_max rounds to index 0 it is
    clamped to |difference| <= 0, so strict and inclusive counts agree
    there (16,478 each at n=100, eps_max=0).
    """
    eps_idx = _eps_index(disc, eps_max, strict_eps)
    grid = prevalence_grid(disc, p_grid_step)
    counts = _pair_counts(*_grid_triples(disc, grid), eps_idx, disc.n + 1)
    return PrevalenceHeatmap(
        p_indices=grid, n=disc.n, counts=counts, total=int(counts.sum())
    )


def quartile_bins(disc: Discretization) -> list[tuple[int, int]]:
    """disc.v_range split into four disjoint quarters; empty ones are left out."""
    lo, hi = disc.v_range
    edges = [lo + (hi + 1 - lo) * q // 4 for q in range(5)]
    return [(a, b - 1) for a, b in zip(edges, edges[1:]) if a < b]


def ppv_binned_counts(
    disc: Discretization,
    eps_max: float,
    bins: Optional[Sequence[tuple[int, int]]] = None,
) -> list[int]:
    """Heatmap totals with disc.v_range narrowed to each bin in turn.

    bins defaults to quartile_bins(disc). Every bin must lie inside
    disc.v_range: a window reaching past it would add PPV values the
    full heatmap never counts. A bin's sets are the rows of the full
    window's sets with v in the bin, which keeps their sort, so they
    equal the sets of the narrowed window row for row.
    """
    v_lo, v_hi = disc.v_range
    windows = quartile_bins(disc) if bins is None else [(lo, hi) for lo, hi in bins]
    for lo, hi in windows:
        if lo > hi or lo < v_lo or hi > v_hi:
            raise OverlappingBins(f"bin ({lo}, {hi}) outside v_range {disc.v_range}")
    covered = sorted(windows)
    for (_, hi_prev), (lo_next, _) in zip(covered, covered[1:]):
        if lo_next <= hi_prev:
            raise OverlappingBins("bins must be disjoint")
    eps_idx = _eps_index(disc, eps_max, False)
    cols, sizes = _grid_triples(disc, prevalence_grid(disc, 0.01))
    owner = np.repeat(np.arange(len(sizes)), sizes)
    totals = []
    for lo, hi in windows:
        keep = (cols[2] >= lo) & (cols[2] <= hi)
        in_bin = np.bincount(owner[keep], minlength=len(sizes))
        totals.append(int(_pair_counts(cols[:, keep], in_bin, eps_idx, disc.n + 1).sum()))
    return totals


def heatmap_to_csv(hm: PrevalenceHeatmap, path) -> None:
    """Matrix CSV: header row/column hold prevalence indices."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["p1_idx\\p2_idx"] + hm.p_indices)
        for i, p1 in enumerate(hm.p_indices):
            w.writerow([p1] + [int(c) for c in hm.counts[i]])
