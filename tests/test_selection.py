import json
import math
import random
from dataclasses import asdict

import pytest

from fairfeas import selection
from fairfeas.errors import DomainError, Infeasible, TooManyGroups
from fairfeas.selection import (
    GroupSupply,
    KScanRow,
    SelectionInstance,
    check_allocation,
    k_scan,
    report_to_csv,
    solve_exact,
    unconstrained_max_tp,
)
from helpers import item_oracle, reference_solve_exact


def random_instance(rng, max_per_group=5, max_groups=3):
    groups = []
    for j in range(rng.randint(1, max_groups)):
        p, n = rng.randint(0, max_per_group), rng.randint(0, max_per_group)
        if p + n == 0:
            p = 1
        groups.append(GroupSupply(f"g{j}", p, n))
    total = sum(g.n for g in groups)
    return SelectionInstance(
        groups=tuple(groups),
        k=rng.randint(1, total),
        ppv_cap=rng.choice([0.5, 0.7, 1.0]),
    )


def test_unconstrained_cap_binds():
    inst = SelectionInstance((GroupSupply("a", 50, 50),), k=20, ppv_cap=0.7)
    assert unconstrained_max_tp(inst) == 14


def test_unconstrained_supply_binds():
    inst = SelectionInstance((GroupSupply("a", 5, 50),), k=20, ppv_cap=1.0)
    assert unconstrained_max_tp(inst) == 5


def test_unconstrained_infeasible_when_negatives_short():
    inst = SelectionInstance((GroupSupply("a", 50, 2),), k=10, ppv_cap=0.7)
    with pytest.raises(Infeasible):
        unconstrained_max_tp(inst)


def test_select_everything_when_unbounded():
    groups = (GroupSupply("a", 3, 4), GroupSupply("b", 5, 2))
    inst = SelectionInstance(groups, k=14, ppv_cap=1.0, lb=0.0, ub=math.inf)
    res = solve_exact(inst)
    assert res.status == "optimal"
    assert res.allocation.t == {"a": 3, "b": 5}
    assert res.allocation.f == {"a": 4, "b": 2}


def test_group_count_optimum_matches_item_oracle():
    rng = random.Random(42)
    for _ in range(150):
        inst = random_instance(rng)
        expected = item_oracle(inst)
        res = solve_exact(inst)
        got = res.tp_total if res.status == "optimal" else -1
        assert got == expected, f"instance {inst}"


# a lower bound <= 0 makes every lower-bound inequality vacuous
RATIO_BOUNDS = ((0.8, 1.2), (0.5, math.inf), (1, 1), (-0.5, 1.2), (0, math.inf))
CAPS = (0.3, 0.7, 1.0)


@pytest.fixture
def checked(monkeypatch):
    """Allocations that solve_exact passed through check_allocation."""
    allocations = []
    real_check = selection.check_allocation
    monkeypatch.setattr(
        selection,
        "check_allocation",
        lambda inst, alloc: allocations.append(alloc) or real_check(inst, alloc),
    )
    return allocations


def assert_matches_reference(inst):
    res = solve_exact(inst)
    assert res == reference_solve_exact(inst), f"instance {inst}"
    return res


@pytest.mark.parametrize("n_groups", [1, 2, 3, 4])
def test_solve_exact_matches_reference_solver(n_groups, checked):
    # same status, optimum and tie-broken allocation as the Fraction
    # search on every k; a quarter of the groups lack positives and a
    # quarter lack negatives, so every zero-denominator rule is exercised
    optimal = 0
    rng = random.Random(1000 + n_groups)
    for _ in range(4):
        groups = []
        for j in range(n_groups):
            p, n = rng.randint(0, 7), rng.randint(0, 7)
            kind = rng.random()
            if kind < 0.25:
                p, n = 0, n or 1
            elif kind < 0.5:
                p, n = p or 1, 0
            groups.append(GroupSupply(f"g{j}", p, n))
        ref = rng.choice([g.group_key for g in groups])
        total = sum(g.n for g in groups)
        for lb, ub in RATIO_BOUNDS:
            for cap in CAPS:
                for k in range(1, total + 1):
                    inst = SelectionInstance(tuple(groups), k, cap, lb, ub, ref)
                    optimal += assert_matches_reference(inst).status == "optimal"
    assert optimal > 0 and len(checked) == optimal


@pytest.mark.parametrize(
    "supply", [((120, 180), (40, 160)), ((30, 270), (90, 110)), ((150, 50), (0, 60))]
)
def test_solve_exact_matches_reference_solver_few_hundred_rows(supply):
    groups = tuple(GroupSupply(f"g{j}", p, n) for j, (p, n) in enumerate(supply))
    total = sum(g.n for g in groups)
    for lb, ub in RATIO_BOUNDS:
        for pct in (5, 30, 55, 80, 100):
            assert_matches_reference(SelectionInstance(groups, pct * total // 100, 0.7, lb, ub))


@pytest.mark.parametrize("ref", ["g0", "g1"])
@pytest.mark.parametrize("lb, ub", RATIO_BOUNDS + ((-0.5, math.inf),))
def test_two_group_search_matches_reference_solver(lb, ub, ref, checked):
    # the by-objective two-group path against the Fraction search on
    # every k: one supply pair of each kind (plain, a group without
    # positives, a group without negatives), caps from 0.35 to 1
    rng = random.Random(f"{lb} {ub} {ref}")
    optimal = 0
    for kind in ("plain", "no positives", "no negatives"):
        supply = [[rng.randint(1, 12), rng.randint(1, 12)] for _ in range(2)]
        if kind != "plain":
            supply[rng.randrange(2)][kind == "no negatives"] = 0
        groups = tuple(GroupSupply(f"g{j}", p, n) for j, (p, n) in enumerate(supply))
        for cap in (0.35, 0.6, 0.85, 1.0):
            for k in range(1, sum(g.n for g in groups) + 1):
                inst = SelectionInstance(groups, k, cap, lb, ub, ref)
                optimal += assert_matches_reference(inst).status == "optimal"
    assert optimal > 0 and len(checked) == optimal


# loose, tight, equal, one-sided, vacuous-lower and near-equal ratio bounds
WIDE_BOUNDS = ((0.8, 1.2), (0.5, 2), (0.9, 1.1), (1, 1), (0.8, math.inf), (-0.5, 1.2), (0.95, 1.05))
WIDE_CAPS = (0.35, 0.5, 0.6, 0.7, 0.85, 1.0)


def test_branch_and_bound_matches_reference_solver(checked):
    # the pruned descent for three to five groups against the Fraction
    # search: whole results, tie-broken allocation included; about one
    # group in six lacks positives and one in six negatives
    rng = random.Random(30)
    optimal = 0
    for _ in range(500):
        groups = []
        for j in range(rng.randint(3, 5)):
            p, n = rng.randint(0, 12), rng.randint(0, 12)
            kind = rng.random()
            if kind < 1 / 6:
                p, n = 0, n or 1
            elif kind < 1 / 3:
                p, n = p or 1, 0
            groups.append(GroupSupply(f"g{j}", p, n if p or n else 1))
        lb, ub = rng.choice(WIDE_BOUNDS)
        ref = rng.choice([None] + [g.group_key for g in groups])
        k = rng.randint(1, sum(g.n for g in groups))
        inst = SelectionInstance(tuple(groups), k, rng.choice(WIDE_CAPS), lb, ub, ref)
        optimal += assert_matches_reference(inst).status == "optimal"
    assert optimal > 100 and len(checked) == optimal


ANALYZE_4G = tuple(
    GroupSupply(key, p, 100 - p) for key, p in (("a0|b0", 50), ("a0|b1", 40), ("a1|b0", 30), ("a1|b1", 20))
)


def test_branch_and_bound_prunes_analyze_4g(monkeypatch):
    # without the FPR floors, the PPV wedge cap and the box test the
    # descent takes 20,874 steps here
    monkeypatch.setattr(selection, "MAX_DESCENT_CALLS", 12_000)
    (row,) = k_scan(ANALYZE_4G, k_grid=(15,)).rows
    assert row.constrained_tp == 29 and not row.optimal


def test_branch_and_bound_budget_raises(monkeypatch):
    monkeypatch.setattr(selection, "MAX_DESCENT_CALLS", 100)
    with pytest.raises(DomainError, match="--sample-n"):
        solve_exact(SelectionInstance(ANALYZE_4G, k=60))


def test_two_group_search_matches_reference_solver_large():
    # the reference-pair loop passes 20,828 (t_ref, f_ref) pairs to its
    # descent here; the two-group path must pick the same allocation
    groups = (GroupSupply("a", 200, 200), GroupSupply("b", 80, 320))
    res = assert_matches_reference(SelectionInstance(groups, k=240))
    assert res.tp_total == 46


def test_k_scan_full_table_two_groups(checked):
    # the analyze-sampled supply at full size, 200k rows, default grid
    groups = (GroupSupply("a0", 48_000, 72_000), GroupSupply("a1", 24_000, 56_000))
    report = k_scan(groups)
    assert report.summary == "[5,95]"
    # at 100% everything is selected, and the PPV ratio 0.3/0.4 = 0.75 is below 0.8
    assert report.rows[-1].unconstrained_tp == 72_000
    assert report.rows[-1].constrained_tp is None
    assert len(checked) == sum(r.constrained_tp is not None for r in report.rows)


def test_zero_positive_group_skips_fnr_constraint():
    # group a has no positives: its FNR is undefined and that ratio
    # constraint must be skipped rather than rendering everything infeasible
    groups = (GroupSupply("b", 4, 4), GroupSupply("a", 0, 4))
    inst = SelectionInstance(groups, k=6, ppv_cap=1.0, reference_group="b")
    res = solve_exact(inst)
    assert res.status == "optimal"
    assert res.tp_total == item_oracle(inst)


def test_zero_count_groups_match_item_oracle():
    # one group has no negatives (FPR undefined), another no positives
    # (FNR undefined): either numerator can only be 0
    groups = (GroupSupply("r", 3, 3), GroupSupply("p", 3, 0), GroupSupply("n", 0, 3))
    for ref in ("r", "p", "n"):
        for k in range(1, 10):
            inst = SelectionInstance(groups, k=k, ppv_cap=1.0, reference_group=ref)
            res = solve_exact(inst)
            got = res.tp_total if res.status == "optimal" else -1
            assert got == item_oracle(inst), f"reference {ref}, k={k}"


def test_checker_rejects_bad_allocation():
    groups = (GroupSupply("a", 5, 5), GroupSupply("b", 5, 5))
    inst = SelectionInstance(groups, k=4, ppv_cap=1.0)
    res = solve_exact(inst)
    bad = type(res.allocation)(t={"a": 4, "b": 0}, f={"a": 0, "b": 0})
    with pytest.raises(AssertionError):
        check_allocation(inst, bad)


def test_monotone_in_cap():
    rng = random.Random(9)
    for _ in range(30):
        inst = random_instance(rng)
        values = []
        for cap in (0.5, 0.7, 1.0):
            loosened = SelectionInstance(inst.groups, inst.k, cap, inst.lb, inst.ub)
            res = solve_exact(loosened)
            values.append(res.tp_total if res.status == "optimal" else -1)
        assert values == sorted(values)


def test_group_order_invariance():
    rng = random.Random(11)
    for _ in range(30):
        inst = random_instance(rng, max_groups=3)
        res = solve_exact(inst)
        flipped = SelectionInstance(
            tuple(reversed(inst.groups)),
            inst.k,
            inst.ppv_cap,
            inst.lb,
            inst.ub,
            reference_group=inst.reference_group,
        )
        res2 = solve_exact(flipped)
        assert (res.status, res.tp_total) == (res2.status, res2.tp_total)


def test_too_many_groups_rejected():
    groups = tuple(GroupSupply(f"g{i}", 1, 1) for i in range(9))
    with pytest.raises(TooManyGroups):
        SelectionInstance(groups, k=2)


def test_infinite_lower_bound_rejected():
    # an infinite ub means "no upper bound"; -inf as lb has no exact rational
    with pytest.raises(ValueError, match="lb <= 1 <= ub"):
        SelectionInstance((GroupSupply("a", 5, 5),), k=2, lb=-math.inf)


def test_default_reference_is_largest_group():
    groups = (GroupSupply("small", 1, 1), GroupSupply("big", 5, 5))
    assert SelectionInstance(groups, k=2).reference_group == "big"


def test_k_scan_symmetric_cohort_all_optimal():
    groups = (GroupSupply("a", 25, 25), GroupSupply("b", 25, 25))
    report = k_scan(groups, cap=0.7, k_grid=(20, 40, 60, 80, 100))
    assert report.summary == "All"


def test_k_scan_summary_longest_run():
    groups = (GroupSupply("a", 100, 100), GroupSupply("b", 100, 100))
    report = k_scan(groups, cap=0.7)
    assert report.summary in ("All", "None") or report.summary.startswith("[")


@pytest.mark.parametrize(
    "flags, summary",
    [
        ("1101110", "[20,30]"),  # the longest run wins
        ("0110110", "[10,15]"),  # equal runs: the smaller start
        ("1111", "All"),
        ("0000", "None"),
        ("0100", "[10,10]"),
    ],
)
def test_summarize_optimal_runs(flags, summary):
    rows = [KScanRow(5 * (i + 1), i + 1, 1, 1, f == "1") for i, f in enumerate(flags)]
    assert selection._summarize(rows) == summary


@pytest.mark.parametrize(
    "k_grid", [(), (0,), (150,), (50, 101), (-5,), (45, 10, 60), (30, 30)]
)
def test_k_scan_rejects_bad_k_grid(k_grid):
    with pytest.raises(ValueError, match=r"k grid percents must lie in \(0, 100\]"):
        k_scan((GroupSupply("a", 10, 10),), k_grid=k_grid)


@pytest.mark.parametrize("pct, n, k", [(58, 25, 15), (70, 45, 32), (50, 3, 2), (1, 10, 1)])
def test_k_scan_rounds_exact_halves_up(pct, n, k):
    # 58% of 25 is 14.5 exactly, but 0.58 * 25 is 14.499999999999998 in floats
    report = k_scan((GroupSupply("a", n // 2, n - n // 2),), cap=1.0, k_grid=(pct,))
    assert report.rows[0].k_abs == k


def test_k_scan_json_round_trip():
    groups = (GroupSupply("a", 10, 10), GroupSupply("b", 10, 10))
    report = k_scan(groups, cap=0.7, k_grid=(50, 100))
    # the k-scan block of the analyze report, as cmd_analyze writes it
    payload = json.loads(json.dumps(asdict(report)))
    assert list(payload) == ["rows", "summary"]
    assert list(payload["rows"][0]) == [
        "k_pct", "k_abs", "unconstrained_tp", "constrained_tp", "optimal"
    ]
    assert payload["summary"] == report.summary
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["k_pct"] == 50


def test_report_csv_columns(tmp_path):
    groups = (GroupSupply("a", 10, 10), GroupSupply("b", 5, 15))
    report = k_scan(groups, cap=0.7, k_grid=(50, 100))
    out = tmp_path / "table.csv"
    report_to_csv(groups, report, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == [
        "Group",
        "Group Distribution %",
        "Group Prevalence %",
        "Maximum Prevalence Difference %",
        "Optimal k Range",
    ]
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "50.00"
