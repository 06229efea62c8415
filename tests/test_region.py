import math
import tracemalloc

import numpy as np
import pytest

from fairfeas.errors import BadPrevalence, DomainError, OverlappingBins
import fairfeas.region as region_module
from fairfeas.region import (
    MAX_N,
    Discretization,
    count_joint,
    enumerate_triples,
    heatmap,
    heatmap_to_csv,
    ppv_binned_counts,
    prevalence_grid,
    quartile_bins,
)
from helpers import naive_joint_count, naive_triples, reference_enumerate_triples


@pytest.mark.parametrize("n,p_idx", [(5, 2), (10, 5), (10, 3), (20, 7)])
def test_enumeration_matches_fraction_oracle(n, p_idx):
    disc = Discretization(n=n)
    got = {tuple(row) for row in enumerate_triples(p_idx, disc).triples}
    assert got == naive_triples(p_idx, disc)


def oracle_discretizations(n: int) -> list[Discretization]:
    return [
        Discretization(n=n),
        Discretization(n=n, alpha_range=(1, n - 1), beta_range=(1, n // 2), v_range=(n // 3, n - 1)),
        Discretization(n=n, alpha_range=(0, n), beta_range=(0, n), v_range=(0, n)),
        Discretization(n=n, alpha_range=(1, n - 1), beta_range=(n // 2, n), v_range=(0, n // 2)),
    ]


@pytest.mark.parametrize("n", [2, 3, 5, 10, 20, 37])
def test_enumeration_matches_loop_oracle_row_for_row(n):
    free_rows = 0  # rows from the d = 0 branch, where any alpha is feasible
    for disc in oracle_discretizations(n):
        for p_idx in range(1, n):
            got = enumerate_triples(p_idx, disc).triples
            assert got.dtype == np.int16 and got.flags.f_contiguous
            assert np.array_equal(got, reference_enumerate_triples(p_idx, disc))
            free_rows += np.count_nonzero(got[:, 2] == 0)
    assert free_rows > 0


def test_hand_derived_count_at_half():
    disc = Discretization(n=10)
    assert len(enumerate_triples(5, disc)) == 24


def test_enumeration_rejects_degenerate_prevalence():
    disc = Discretization(n=10)
    with pytest.raises(BadPrevalence):
        enumerate_triples(0, disc)
    with pytest.raises(BadPrevalence):
        enumerate_triples(10, disc)


COUNT_CASES = [  # n, p1, p2, eps_idx, PPV window or "all" (every range [0, n])
    (5, 2, 3, 1, None),
    (10, 5, 5, 0, None),
    (20, 7, 7, 3, None),
    (10, 3, 7, 2, None),
    (20, 7, 11, 1, None),
    (10, 3, 7, 10, None),  # eps_idx >= n: every pair counts
    (10, 4, 6, 25, None),
    (20, 7, 11, 2, (5, 12)),
    (20, 7, 11, 3, (19, 19)),  # a window no triple falls in
    (400, 1, 399, 399, "all"),  # index differences reach +-400 on every metric
    (20, 7, 11, 2**40, None),
]


def count_case_id(case) -> str:
    window = case[4]
    suffix = "" if window is None else "-all" if window == "all" else f"-v{window[0]}:{window[1]}"
    return "-".join(map(str, case[:4])) + suffix


@pytest.mark.parametrize("n,p1,p2,eps_idx,window", COUNT_CASES, ids=map(count_case_id, COUNT_CASES))
def test_count_joint_matches_double_loop(n, p1, p2, eps_idx, window):
    if window == "all":
        disc = Discretization(n=n, alpha_range=(0, n), beta_range=(0, n), v_range=(0, n))
    else:
        disc = Discretization(n=n, v_range=window)
    s1 = enumerate_triples(p1, disc)
    s2 = s1 if p2 == p1 else enumerate_triples(p2, disc)  # one object twice, as --single-cell
    naive = naive_joint_count(
        {tuple(r) for r in s1.triples}, {tuple(r) for r in s2.triples}, eps_idx
    )
    assert count_joint((s1, s2), eps_idx) == naive
    if eps_idx >= n:
        assert naive == len(s1) * len(s2)
    if window == (19, 19):
        assert len(s1) == len(s2) == 0
    if window == "all":
        for col in range(3):
            diffs = s1.triples[:, col, None].astype(int) - s2.triples[None, :, col]
            assert diffs.min() == -n and diffs.max() == n


def test_count_joint_memory_grows_with_triples_not_n_cubed():
    # one dense (n+2)^3 int64 table at n=300 alone would take 210 MiB
    disc = Discretization(n=300)
    s1, s2 = enumerate_triples(150, disc), enumerate_triples(149, disc)
    tracemalloc.start()
    try:
        count_joint((s1, s2), 15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


HEATMAP_ORACLE_CASES = [  # n, prevalence step, ranges
    (n, step, ranges)
    for n, step in ((5, 0.01), (10, 0.01), (20, 0.25))
    for ranges in ("default", "all", "narrow-v")
] + [(20, 0.25, "empty-v")]


def oracle_case_disc(n: int, ranges: str) -> Discretization:
    if ranges == "all":  # free rows: v = 0 with beta = n leaves alpha unconstrained
        return Discretization(n=n, alpha_range=(0, n), beta_range=(0, n), v_range=(0, n))
    window = {"default": None, "narrow-v": (n // 4, 3 * n // 4), "empty-v": (19, 19)}[ranges]
    return Discretization(n=n, v_range=window)


@pytest.mark.parametrize(
    "n,step,ranges", HEATMAP_ORACLE_CASES, ids=[f"{n}-{r}" for n, _, r in HEATMAP_ORACLE_CASES]
)
def test_heatmap_matches_pairwise_oracle_at_every_eps(n, step, ranges):
    disc = oracle_case_disc(n, ranges)
    oracle_sets = [naive_triples(p, disc) for p in prevalence_grid(disc, step)]
    if ranges == "all":
        assert any(v == 0 for s in oracle_sets for _, _, v in s)
    if ranges == "empty-v":  # empty at p = 5, not at 10 and 15: offsets repeat mid-grid
        assert [len(t) for t in oracle_sets] == [0, 1, 1]
    expected = [
        np.array([[naive_joint_count(s1, s2, e) for s2 in oracle_sets] for s1 in oracle_sets])
        for e in range(n + 1)
    ]
    for e in range(n + 1):
        assert np.array_equal(heatmap(disc, e / n, step).counts, expected[e])
        assert np.array_equal(heatmap(disc, e / n, step, strict_eps=True).counts, expected[max(0, e - 1)])


def test_heatmap_counts_do_not_depend_on_chunk_size(monkeypatch):
    disc = Discretization(n=20, alpha_range=(0, 20), beta_range=(0, 20), v_range=(0, 20))
    whole = heatmap(disc, 0.1).counts
    monkeypatch.setattr(region_module, "_CHUNK_WORDS", 1)  # one query triple per chunk
    assert np.array_equal(heatmap(disc, 0.1).counts, whole)


SEGMENT_SIZES = [(3, 0, 4), (0, 5, 2), (2, 6, 0), (0, 0, 7, 0, 0, 1), (1,) * 9, (0,), ()]


@pytest.mark.parametrize("chunk_words", [1, 5, region_module._CHUNK_WORDS])
def test_segment_partners_match_double_loop(monkeypatch, chunk_words):
    # chunks of 1 or 5 query rows cut the multi-row segments; the default holds them all in one
    monkeypatch.setattr(region_module, "_CHUNK_WORDS", chunk_words)
    rng = np.random.default_rng(chunk_words)
    height = 9
    for sizes in SEGMENT_SIZES:
        for n_cols, eps_idx in ((0, 2), (1, 0), (40, 1), (70, 2), (130, 3)):
            rows = rng.integers(0, height, size=(3, sum(sizes)), dtype=np.intp)
            cols = rng.integers(0, height, size=(n_cols, 3)).astype(np.int16)
            bounds = np.cumsum((0,) + sizes)
            got = region_module._segment_partners(rows, bounds[:-1], cols, eps_idx, height)
            col_list = [tuple(c) for c in cols.tolist()]
            expected = [
                naive_joint_count([tuple(r) for r in rows.T[lo:hi].tolist()], col_list, eps_idx)
                for lo, hi in zip(bounds, bounds[1:])
            ]
            # with one segment per row, as in (1,) * 9, entry r is row r's own partner count
            assert got.tolist() == expected, (sizes, n_cols, eps_idx)


def test_heatmap_memory_stays_bounded_at_n_100():
    # 1.2 MiB here; querying all 16,478 triples against the first column in one
    # chunk instead raises the peak to about 2.5 MiB
    disc = Discretization(n=100)
    tracemalloc.start()
    try:
        heatmap(disc, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_prevalence_grid_excludes_edges():
    disc = Discretization(n=100)
    grid = prevalence_grid(disc, 0.01)
    assert grid[0] == 1 and grid[-1] == 99 and len(grid) == 99
    assert prevalence_grid(Discretization(n=10), 0.01) == list(range(1, 10))  # rounds up to 1


@pytest.mark.parametrize("step", [0.0, -0.0, -1.0, 1.0, 2.0, 0.96, math.inf, -math.inf, math.nan])
def test_prevalence_grid_rejects_step_outside_unit_interval(step):
    # 0.96 lies in (0, 1) but rounds to 10 indices at n=10: no prevalence left
    with pytest.raises(ValueError):
        prevalence_grid(Discretization(n=10), step)


def test_heatmap_symmetry_and_total():
    disc = Discretization(n=20)
    hm = heatmap(disc, eps_max=0.05, p_grid_step=0.05)
    assert np.array_equal(hm.counts, hm.counts.T)
    assert hm.total == hm.counts.sum()


def test_heatmap_zero_eps_diagonal_only():
    disc = Discretization(n=20)
    hm = heatmap(disc, eps_max=0.0, p_grid_step=0.05)
    off_diag = hm.counts - np.diag(np.diag(hm.counts))
    assert off_diag.sum() == 0
    assert np.diag(hm.counts).sum() > 0


def test_heatmap_monotone_in_eps():
    disc = Discretization(n=20)
    totals = [
        heatmap(disc, eps_max=e, p_grid_step=0.05).total for e in (0.0, 0.05, 0.1)
    ]
    assert totals[0] < totals[1] < totals[2]


def test_ppv_window_restricts_counts():
    full = heatmap(Discretization(n=20), eps_max=0.05, p_grid_step=0.05).total
    windowed = heatmap(
        Discretization(n=20, v_range=(10, 15)), eps_max=0.05, p_grid_step=0.05
    ).total
    assert 0 < windowed < full


def test_binned_counts_match_filtered_oracle():
    cases = [
        (Discretization(n=20), ((0, 6), (7, 12), (15, 19))),  # v 13 and 14 fall in no bin
        (Discretization(n=20, alpha_range=(2, 15), beta_range=(3, 12)), ((4, 8), (13, 19), (0, 3))),
    ]
    for disc, bins in cases:
        oracle_sets = {p: naive_triples(p, disc) for p in prevalence_grid(disc, 0.01)}
        in_bins = [
            {p: {t for t in s if lo <= t[2] <= hi} for p, s in oracle_sets.items()} for lo, hi in bins
        ]
        for eps_idx in (0, 1, 3):
            expected = [
                sum(naive_joint_count(in_bin[p1], in_bin[p2], eps_idx) for p1 in in_bin for p2 in in_bin)
                for in_bin in in_bins
            ]
            assert ppv_binned_counts(disc, eps_idx / 20, bins=bins) == expected
            assert ppv_binned_counts(disc, eps_idx / 20, bins=bins[::-1]) == expected[::-1]
    # narrowed case: (4, 8) holds no triple at p = 1 or from p = 11 on, so sets are empty mid-grid
    assert not in_bins[0][1] and in_bins[0][5] and not in_bins[0][11]


def test_binned_counts_with_last_prevalence_empty_in_bin():
    disc = Discretization(n=10)
    grid = prevalence_grid(disc, 0.01)
    in_bin = {p: {t for t in naive_triples(p, disc) if 1 <= t[2] <= 4} for p in grid}
    assert in_bin[grid[-2]] and not in_bin[grid[-1]]  # p = 9 has PPV indices 5, 6, 8, 9
    expected = sum(naive_joint_count(in_bin[p1], in_bin[p2], 1) for p1 in grid for p2 in grid)
    assert ppv_binned_counts(disc, 1 / 10, bins=[(1, 4)]) == [expected]


@pytest.mark.parametrize("n", [50, 200])
def test_default_bins_tile_v_range(n):
    disc = Discretization(n=n)
    bins = quartile_bins(disc)
    assert len(bins) == 4 and bins[0][0] == disc.v_range[0] and bins[-1][1] == disc.v_range[1]
    assert all(lo <= hi and hi + 1 == nxt for (lo, hi), (nxt, _) in zip(bins, bins[1:]))
    # at eps 0 a pair shares its PPV index, so bins that tile v_range split the total
    totals = ppv_binned_counts(disc, 0.0)
    assert len(totals) == 4 and sum(totals) == heatmap(disc, 0.0).total


def test_default_bins_are_the_quarters_of_v_range():
    assert quartile_bins(Discretization(n=100)) == [(0, 24), (25, 49), (50, 74), (75, 99)]
    assert quartile_bins(Discretization(n=10, v_range=(4, 5))) == [(4, 4), (5, 5)]  # empty quarters left out


def test_binned_counts_reject_bad_eps():
    for eps in (-0.01, 1.01, math.nan):
        with pytest.raises(ValueError):
            ppv_binned_counts(Discretization(n=10), eps)


def test_memoized_sets_give_the_counts_of_cold_calls():
    narrow = Discretization(n=24, alpha_range=(3, 20), beta_range=(2, 15))
    wide = Discretization(n=24, alpha_range=(0, 24), beta_range=(0, 24), v_range=(0, 24))
    calls = [  # interleaved, so the memo switches between the two and refills
        (narrow, "heatmap", (0.1, 0.01, False)),
        (narrow, "heatmap", (0.2, 0.02, True)),
        (narrow, "bins", (0.1, None)),
        (wide, "heatmap", (0.0, 0.02, False)),
        (wide, "bins", (0.1, ((0, 4), (20, 24)))),
        (wide, "heatmap", (0.1, 0.01, True)),
        (narrow, "bins", (0.05, ((10, 12),))),
        (narrow, "heatmap", (0.05, 0.01, False)),
        (wide, "heatmap", (0.2, 0.01, False)),
    ]

    def run(disc, kind, args):
        if kind == "bins":
            return ppv_binned_counts(disc, args[0], bins=args[1])
        hm = heatmap(disc, *args)
        return hm.counts.tolist(), hm.total

    warm = [run(*call) for call in calls]
    assert region_module._triple_memo.cache_info().currsize == 1
    memo = region_module._triple_memo(wide)
    assert memo and all(not t.flags.writeable for t in memo.values())
    cold = []
    for call in calls:
        region_module._triple_memo.cache_clear()
        cold.append(run(*call))
    assert warm == cold
    fresh = enumerate_triples(5, wide).triples
    assert fresh.flags.writeable and fresh.flags.owndata


def test_binned_counts_reject_overlap():
    disc = Discretization(n=100)
    with pytest.raises(OverlappingBins):
        ppv_binned_counts(disc, 0.05, bins=((0, 30), (30, 60)))
    with pytest.raises(OverlappingBins):
        ppv_binned_counts(disc, 0.05, bins=((0, 120),))


def test_heatmap_csv_round_trips_header(tmp_path):
    disc = Discretization(n=10)
    hm = heatmap(disc, eps_max=0.1, p_grid_step=0.1)
    out = tmp_path / "hm.csv"
    heatmap_to_csv(hm, out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == len(hm.p_indices) + 1
    assert lines[0].split(",")[1:] == [str(p) for p in hm.p_indices]


def test_resolution_limit_rejected_before_enumeration():
    assert Discretization(n=MAX_N).n == MAX_N  # constructing enumerates nothing
    with pytest.raises(DomainError):
        Discretization(n=MAX_N + 1)


def test_list_ranges_are_stored_as_tuples():
    disc = Discretization(n=10, v_range=[2, 7])  # a list would leave the instance unhashable
    assert disc.v_range == (2, 7) and disc == Discretization(n=10, v_range=(2, 7))
    assert heatmap(disc, 0.1).total == heatmap(Discretization(n=10, v_range=(2, 7)), 0.1).total


def test_discretization_validates_ranges():
    with pytest.raises(ValueError):
        Discretization(n=1)
    with pytest.raises(ValueError):
        Discretization(n=10, v_range=(5, 11))
