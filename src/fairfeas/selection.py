"""Exact top-k selection under a PPV cap and disparity-ratio constraints.

The per-item problem (pick k rows maximizing true positives subject to
a list-PPV cap and per-group FPR/FNR/PPV ratio bounds against a
reference group) depends on rows only through each group's selected
positive count t_j and selected negative count f_j, so a search over
those integer allocations is exact, with no LP relaxation or external
solver. Two groups are searched by objective value, one integer test
per (t_ref, t) cell; one group or three and more by branch-and-bound
with a depth-first descent. Ties go, on both paths, to the first
allocation in the order t_ref descending, then f_ref ascending.

All ratio constraints are checked exactly, by integer
cross-multiplication in the search and again with fractions.Fraction
on the returned allocation, so "optimal" and "feasible" are never
artifacts of floating-point rounding.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import Infeasible, TooManyGroups

MAX_GROUPS = 8

#: k_scan's percentage grid: every 5% from 5 to 100.
DEFAULT_K_GRID = tuple(range(5, 101, 5))

#: Ratio constraints are enforced on these selection-restricted metrics.
CONSTRAINED_METRICS = ("fpr", "fnr", "ppv")


def _to_fraction(x) -> Optional[Fraction]:
    """Exact rational for a bound; None encodes an infinite upper bound."""
    if x == math.inf:
        return None
    return Fraction(str(x))


def check_constraints(ppv_cap: float, lb: float, ub: float) -> None:
    """ValueError unless 0 < ppv_cap <= 1, lb <= 1 <= ub and lb is finite."""
    if not 0.0 < ppv_cap <= 1.0:
        raise ValueError("ppv_cap must lie in (0, 1]")
    if not (lb <= 1.0 <= ub and math.isfinite(lb)):
        raise ValueError(f"bounds must satisfy lb <= 1 <= ub with lb finite, got {lb}, {ub}")


def check_k_grid(grid: Sequence[int]) -> None:
    """ValueError unless grid is non-empty, in (0, 100] and strictly increasing."""
    if not grid or any(not 0 < pct <= 100 for pct in grid):
        raise ValueError("k grid percents must lie in (0, 100]")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("k grid percents must lie in (0, 100] and strictly increase")


@dataclass(frozen=True)
class GroupSupply:
    """Available positives and negatives for one group."""

    group_key: str
    positives: int
    negatives: int

    def __post_init__(self):
        if self.positives < 0 or self.negatives < 0:
            raise ValueError("counts must be non-negative")
        if self.positives + self.negatives == 0:
            raise ValueError(f"group {self.group_key!r} is empty")

    @property
    def n(self) -> int:
        return self.positives + self.negatives


@dataclass(frozen=True)
class SelectionInstance:
    groups: tuple[GroupSupply, ...]
    k: int
    ppv_cap: float = 0.7
    lb: float = 0.8
    ub: float = 1.2
    reference_group: Optional[str] = None

    def __post_init__(self):
        if not self.groups:
            raise ValueError("at least one group is required")
        if len(self.groups) > MAX_GROUPS:
            raise TooManyGroups(f"{len(self.groups)} groups exceeds {MAX_GROUPS}")
        if self.k < 1 or self.k > sum(g.n for g in self.groups):
            raise ValueError(f"k={self.k} outside [1, total items]")
        check_constraints(self.ppv_cap, self.lb, self.ub)
        keys = [g.group_key for g in self.groups]
        if len(set(keys)) != len(keys):
            raise ValueError("group keys must be unique")
        if self.reference_group is None:
            # default reference: the largest group (ties: first listed)
            biggest = max(self.groups, key=lambda g: g.n)
            object.__setattr__(self, "reference_group", biggest.group_key)
        elif self.reference_group not in keys:
            raise ValueError(f"unknown reference group {self.reference_group!r}")


@dataclass(frozen=True)
class GroupAllocation:
    """Selected positives t_j and negatives f_j per group key."""

    t: dict[str, int]
    f: dict[str, int]

    def size(self) -> int:
        return sum(self.t.values()) + sum(self.f.values())


@dataclass(frozen=True)
class SelectionResult:
    """Status, allocation and true-positive total; rates follow from the allocation."""

    status: str  # "optimal" | "infeasible"
    allocation: Optional[GroupAllocation]
    tp_total: int


@dataclass(frozen=True)
class KScanRow:
    k_pct: int
    k_abs: int
    unconstrained_tp: Optional[int]
    constrained_tp: Optional[int]
    optimal: bool


@dataclass(frozen=True)
class KScanReport:
    rows: tuple[KScanRow, ...]
    summary: str


def unconstrained_max_tp(inst: SelectionInstance) -> int:
    """Max true positives with only the size and PPV-cap constraints.

    The optimum fills the list with positives up to min(supply,
    floor(cap * k)) and pads with negatives; raises Infeasible when the
    negative supply cannot absorb the padding.
    """
    total_p = sum(g.positives for g in inst.groups)
    total_n = sum(g.negatives for g in inst.groups)
    cap_t = _floor_frac(_to_fraction(inst.ppv_cap) * inst.k)
    best = min(total_p, cap_t)
    if inst.k - best > total_n:
        raise Infeasible(
            f"k={inst.k} cannot be met: at most {best} positives allowed "
            f"and only {total_n} negatives available"
        )
    return best


def _floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def _num_interval(
    r_num: int, r_den: int, den: int, lb: tuple[int, int], ub: Optional[tuple[int, int]]
) -> tuple[int, int]:
    """Integer range for a numerator x with lb*r <= x/den <= ub*r, r = r_num/r_den.

    lb and ub are (numerator, denominator) pairs, ub None an infinite
    upper bound. r_den == 0 (reference metric undefined) or den == 0
    (group metric undefined) leaves the numerator unconstrained per the
    zero-denominator policy, i.e. anywhere in [0, den].
    """
    if r_den == 0 or den == 0:
        return 0, den
    lo = -((-lb[0] * r_num * den) // (lb[1] * r_den))
    hi = den if ub is None else (ub[0] * r_num * den) // (ub[1] * r_den)
    return lo, hi


def _two_group_search(ref, others, k, cap_t, lb, ub) -> Optional[list[tuple[str, int, int]]]:
    """solve_exact's allocation when others holds one group g, or None.

    The total T = t_ref + t descends from its largest possible value; the
    first T with a feasible cell (t_ref, t) is the optimum. In a cell the
    F = k - T selected negatives split as f_ref + f, and every constraint
    left (supply, FPR interval, PPV wedge) is linear in f_ref once
    cross-multiplied, so the least feasible f_ref is one maximum of
    ceilings against one minimum of floors. A lower bound lb <= 0 is
    vacuous and dropped. Cells are visited t_ref descending, so the first
    feasible one, with its least f_ref, is the tie rule's allocation.
    """
    (g,), (l0, l1) = others, lb
    (P, N), (Po, No) = (ref.positives, ref.negatives), (g.positives, g.negatives)

    def band(t_ref):  # the t range that FNR parity with t_ref allows
        fn_lo, fn_hi = _num_interval(P - t_ref, P, Po, lb, ub)
        return max(Po - fn_hi, 0), min(Po - fn_lo, Po)

    for T in range(min(cap_t, P + Po, k), -1, -1):
        F = k - T
        if F > N + No:
            break  # F only grows as T falls
        # the f_ref range that supply and the FPR interval leave; F alone fixes it
        lo, hi = max(F - No, 0), min(F, N)
        if N and No:
            if l0 > 0:
                hi = min(hi, l1 * N * F // (l0 * No + l1 * N))
            if ub is not None:
                lo = max(lo, -(-ub[1] * N * F // (ub[0] * No + ub[1] * N)))
        if lo > hi:
            continue
        # both ends of t_ref + band(t_ref) are non-decreasing, so the cells
        # whose t = T - t_ref lies in the band form one window of t_ref
        ts = range(min(P, T) + 1)
        first = bisect.bisect_left(ts, T, key=lambda t_ref: t_ref + band(t_ref)[1])
        last = bisect.bisect_right(ts, T, key=lambda t_ref: t_ref + band(t_ref)[0]) - 1
        for t_ref in range(last, first - 1, -1):
            t, f_lo, f_hi = T - t_ref, lo, hi
            # PPV wedge l0*t_ref*rem <= l1*s_ref*t and u1*s_ref*t <= u0*t_ref*rem,
            # s_ref = t_ref + f_ref, rem = t + F - f_ref; vacuous when t = t_ref = 0
            if l0 > 0 and t + t_ref:
                f_lo = max(f_lo, -((l1 * t - l0 * (t + F)) * t_ref // (l1 * t + l0 * t_ref)))
            if ub is not None and t + t_ref:
                f_hi = min(f_hi, (ub[0] * (t + F) - ub[1] * t) * t_ref // (ub[1] * t + ub[0] * t_ref))
            if f_lo <= f_hi:
                return [(ref.group_key, t_ref, f_lo), (g.group_key, t, F - f_lo)]
    return None


def _branch_and_bound(ref, others, k, cap_t, lb, ub) -> Optional[list[tuple[str, int, int]]]:
    """solve_exact's allocation for any number of other groups, or None.

    Enumerates the reference group's allocation first (t_ref descending,
    f_ref ascending), which fixes every ratio interval, then searches
    the remaining groups depth-first (t descending, f ascending) with an
    admissible bound; the last group is resolved in closed form. The
    FPR intervals are tabulated once per f_ref, the FNR intervals once
    per t_ref, and the PPV wedge becomes a range of f for each t.
    """
    m = len(others)
    # capacity of groups after position i in the search order
    suffix_cap = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix_cap[i] = suffix_cap[i + 1] + others[i].n
    # per f_ref: each other group's FPR range [f_lo, f_hi], or None
    # when some group's range holds no count it has
    f_table = []
    for f_ref in range(ref.negatives + 1):
        row = [_num_interval(f_ref, ref.negatives, g.negatives, lb, ub) for g in others]
        ok = all(max(lo, 0) <= min(hi, g.negatives) for (lo, hi), g in zip(row, others))
        f_table.append(row if ok else None)

    best_t = -1
    best_alloc: Optional[list[tuple[str, int, int]]] = None
    # set per reference pair: t ranges, their suffix sums, f ranges, and
    # the PPV wedge a/b <= ppv <= c/e (None when the reference list is empty)
    t_row = t_sum = f_row = wedge = None

    def descend(i, used, cur_t, alloc):
        nonlocal best_t, best_alloc
        rem = k - used
        if rem < 0 or rem > suffix_cap[i]:
            return
        if i == m:
            if rem == 0 and cur_t > best_t:
                best_t = cur_t
                best_alloc = alloc
            return
        # admissible bound: remaining groups contribute at most their
        # FNR-interval tops, never more than the budget or the cap
        if cur_t + min(t_sum[i], rem, cap_t - cur_t) <= best_t:
            return
        g = others[i]
        t_lo, t_hi = t_row[i]
        f_lo, f_hi = f_row[i]
        if i == m - 1:
            # closed form: t + f = rem exactly
            if rem == 0:
                if t_lo <= 0 and f_lo <= 0 and cur_t > best_t:
                    best_t = cur_t
                    best_alloc = alloc + [(g.group_key, 0, 0)]
                return
            lo = max(t_lo, rem - min(f_hi, g.negatives), 0)
            hi = min(t_hi, rem - f_lo, g.positives, rem, cap_t - cur_t)
            if wedge is not None:  # PPV wedge at fixed list size rem
                a, b, c, e = wedge
                lo = max(lo, -((-a * rem) // b))
                hi = min(hi, c * rem // e)
            if lo <= hi and cur_t + hi > best_t:
                best_t = cur_t + hi
                best_alloc = alloc + [(g.group_key, hi, rem - hi)]
            return
        for t in range(min(t_hi, g.positives, rem, cap_t - cur_t), max(t_lo, 0) - 1, -1):
            f_first = max(f_lo, 0)
            f_last = min(f_hi, g.negatives, rem - t)
            if wedge is not None:  # a/b <= t/(t+f) <= c/e; t = f = 0 is exempt
                a, b, c, e = wedge
                if a > 0:
                    f_last = min(f_last, b * t // a - t)
                if c < e:
                    if c:
                        f_first = max(f_first, -((c - e) * t // c))
                    elif t:
                        continue
            for f in range(f_first, f_last + 1):
                descend(i + 1, used + t + f, cur_t + t, alloc + [(g.group_key, t, f)])

    others_p = sum(g.positives for g in others)
    for t_ref in range(min(ref.positives, k, cap_t), -1, -1):
        # anything reachable from here on is bounded by this; t_ref descends
        if min(t_ref + others_p, cap_t) <= best_t:
            break
        t_row = []
        for g in others:
            fn_lo, fn_hi = _num_interval(ref.positives - t_ref, ref.positives, g.positives, lb, ub)
            t_row.append((g.positives - fn_hi, g.positives - fn_lo))
        if any(max(lo, 0) > min(hi, g.positives) for (lo, hi), g in zip(t_row, others)):
            continue
        t_sum = [0] * (m + 1)
        for i in range(m - 1, -1, -1):
            t_sum[i] = t_sum[i + 1] + t_row[i][1]
        # smaller f_ref leave more than the other groups can hold
        for f_ref in range(max(0, k - t_ref - suffix_cap[0]), min(ref.negatives, k - t_ref) + 1):
            # the bound only tightens as f_ref grows and best_t rises
            if t_ref + min(t_sum[0], k - t_ref - f_ref, cap_t - t_ref) <= best_t:
                break
            f_row = f_table[f_ref]
            if f_row is None:
                continue
            s_ref = t_ref + f_ref
            wedge = None
            if s_ref:
                c, e = (1, 1) if ub is None else (ub[0] * t_ref, ub[1] * s_ref)
                wedge = (lb[0] * t_ref, lb[1] * s_ref, c, e)
            descend(0, s_ref, t_ref, [(ref.group_key, t_ref, f_ref)])
    return best_alloc


def solve_exact(inst: SelectionInstance) -> SelectionResult:
    """Maximize selected true positives under all constraints, exactly.

    Returns the first allocation of greatest total in the order t_ref
    descending, then f_ref ascending (the reference group's selected
    positives and negatives); see _two_group_search and
    _branch_and_bound. The allocation is re-verified with Fractions by
    check_allocation.
    """
    lb_q, ub_q = _to_fraction(inst.lb), _to_fraction(inst.ub)
    lb = (lb_q.numerator, lb_q.denominator)
    ub = None if ub_q is None else (ub_q.numerator, ub_q.denominator)
    cap_t = _floor_frac(_to_fraction(inst.ppv_cap) * inst.k)
    ref = next(g for g in inst.groups if g.group_key == inst.reference_group)
    others = [g for g in inst.groups if g.group_key != inst.reference_group]
    search = _two_group_search if len(others) == 1 else _branch_and_bound
    best_alloc = search(ref, others, inst.k, cap_t, lb, ub)

    if best_alloc is None:
        return SelectionResult("infeasible", None, 0)
    allocation = GroupAllocation(
        t={key: t for key, t, _ in best_alloc},
        f={key: f for key, _, f in best_alloc},
    )
    check_allocation(inst, allocation)
    return SelectionResult("optimal", allocation, sum(allocation.t.values()))


def check_allocation(inst: SelectionInstance, alloc: GroupAllocation) -> None:
    """Re-verify every constraint with exact rationals; raises on violation."""
    lb = _to_fraction(inst.lb)
    ub = _to_fraction(inst.ub)
    if alloc.size() != inst.k:
        raise AssertionError(f"allocation size {alloc.size()} != k {inst.k}")
    tp = sum(alloc.t.values())
    if Fraction(tp, inst.k) > _to_fraction(inst.ppv_cap):
        raise AssertionError("PPV cap violated")
    by_key = {g.group_key: g for g in inst.groups}
    ref = by_key[inst.reference_group]

    def rational_metrics(g):
        t, f = alloc.t[g.group_key], alloc.f[g.group_key]
        if not (0 <= t <= g.positives and 0 <= f <= g.negatives):
            raise AssertionError(f"allocation outside supply for {g.group_key}")
        return {
            "fpr": Fraction(f, g.negatives) if g.negatives else None,
            "fnr": Fraction(g.positives - t, g.positives) if g.positives else None,
            "ppv": Fraction(t, t + f) if t + f else None,
        }

    ref_m = rational_metrics(ref)
    for g in inst.groups:
        if g.group_key == inst.reference_group:
            continue
        g_m = rational_metrics(g)
        for metric in CONSTRAINED_METRICS:
            rv, gv = ref_m[metric], g_m[metric]
            if rv is None or gv is None:
                continue  # undefined on either side: constraint skipped
            if gv < lb * rv or (ub is not None and gv > ub * rv):
                raise AssertionError(f"{metric} disparity violated for {g.group_key}")


def k_scan(
    groups: Sequence[GroupSupply],
    cap: float = 0.7,
    bounds: tuple[float, float] = (0.8, 1.2),
    k_grid: Sequence[int] = DEFAULT_K_GRID,
) -> KScanReport:
    """Sweep k over percentage grid points and flag the zero-cost ones.

    A grid point is optimal when the disparity constraints cost no true
    positives: the constrained optimum equals the cap-only one. The
    summary is "All", "None", or the longest contiguous optimal run
    "[a,b]" in percent (ties toward smaller a).
    """
    check_k_grid(k_grid)
    groups = tuple(groups)
    n = sum(g.n for g in groups)

    def solve_point(pct: int) -> KScanRow:
        k = max(1, (2 * pct * n + 100) // 200)  # pct% of n, exact halves up
        inst = SelectionInstance(
            groups=groups,
            k=k,
            ppv_cap=cap,
            lb=bounds[0],
            ub=bounds[1],
        )
        try:
            ideal = unconstrained_max_tp(inst)
        except Infeasible:
            return KScanRow(pct, k, None, None, False)
        res = solve_exact(inst)
        got = res.tp_total if res.status == "optimal" else None
        return KScanRow(pct, k, ideal, got, got == ideal)

    rows = [solve_point(pct) for pct in k_grid]
    return KScanReport(rows=tuple(rows), summary=_summarize(rows))


def _summarize(rows: Sequence[KScanRow]) -> str:
    runs = [list(run) for optimal, run in itertools.groupby(rows, lambda r: r.optimal) if optimal]
    if not runs:
        return "None"
    if len(runs[0]) == len(rows):
        return "All"
    best = max(runs, key=len)  # the first of equally long runs
    return f"[{best[0].k_pct},{best[-1].k_pct}]"


def report_to_csv(
    groups: Sequence[GroupSupply], report: KScanReport, path
) -> None:
    """One row per group: distribution %, prevalence %, max diff %, k range."""
    total = sum(g.n for g in groups)
    prevs = [100.0 * g.positives / g.n for g in groups]
    diff = max(prevs) - min(prevs) if len(groups) > 1 else 0.0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "Group",
                "Group Distribution %",
                "Group Prevalence %",
                "Maximum Prevalence Difference %",
                "Optimal k Range",
            ]
        )
        for g, prev in zip(groups, prevs):
            w.writerow(
                [
                    g.group_key,
                    f"{100.0 * g.n / total:.2f}",
                    f"{prev:.2f}",
                    f"{diff:.2f}",
                    report.summary,
                ]
            )
