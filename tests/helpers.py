"""Independent oracles shared by the unit and acceptance tests.

These deliberately avoid the library's own code paths: the triple
oracle checks the defining relation with exact Fractions, the
loop-based enumerator is the per-PPV-row search that the vectorized one
must reproduce row for row, the selection oracle enumerates every
C(n, k) item subset, the reference solver is the group-count search in
Fraction arithmetic that the integer solver must reproduce allocation
for allocation, the planimeter oracle measures every detector against
every curve point, the row-based loader and sampler are the per-row
data layer that the columnar one must reproduce row for row, and the
PPV balance oracle writes the relaxed PPV balance out in Fractions.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from fairfeas.data import KEY_SEPARATOR
from fairfeas.errors import EmptyFile, MissingColumn, MissingValue, TargetTooLarge

from fairfeas.selection import (
    GroupAllocation,
    SelectionInstance,
    SelectionResult,
    _to_fraction,
    check_allocation,
)


def naive_triples(p_idx: int, disc) -> set[tuple[int, int, int]]:
    """All feasible (alpha, beta, v) triples by direct Fraction checks."""
    n = disc.n
    p = Fraction(p_idx, n)
    out = set()
    a_lo, a_hi = disc.alpha_range
    b_lo, b_hi = disc.beta_range
    v_lo, v_hi = disc.v_range
    for b in range(b_lo, b_hi + 1):
        for v in range(v_lo, v_hi + 1):
            for a in range(a_lo, a_hi + 1):
                alpha, beta, ppv = Fraction(a, n), Fraction(b, n), Fraction(v, n)
                if v == 0:
                    # relation has ppv in a denominator; the limiting
                    # identity alpha * v * (1 - p) = p (1 - ppv)(1 - beta)
                    # holds iff the right side vanishes
                    if p * (1 - ppv) * (1 - beta) == 0:
                        out.add((a, b, v))
                    continue
                if alpha == (p / (1 - p)) * ((1 - ppv) / ppv) * (1 - beta):
                    out.add((a, b, v))
    return out


def ppv_balance_oracle(r, beta: float) -> Fraction:
    """LHS - RHS of the relaxed PPV balance at beta, from the definition.

    p/(1-p) (1-v)/v (1-beta) against p2/(1-p2) (1-v2)/v2 (1-beta-eps_fnr)
    + eps_fpr with p2 = p + eps_p and v2 = v + eps_v, all in Fractions.
    """
    p, v, b = Fraction(r.p), Fraction(r.v), Fraction(beta)
    p2, v2 = p + Fraction(r.eps_p), v + Fraction(r.eps_v)
    lhs = p / (1 - p) * (1 - v) / v * (1 - b)
    rhs = p2 / (1 - p2) * (1 - v2) / v2 * (1 - b - Fraction(r.eps_fnr)) + Fraction(r.eps_fpr)
    return lhs - rhs


def reference_enumerate_triples(p_idx: int, disc) -> np.ndarray:
    """The loop-based enumerator: one divmod per v row, rows sorted as tuples.

    The vectorized enumerator must return the same rows in the same order.
    """
    n_res = disc.n
    a_lo, a_hi = disc.alpha_range
    b_lo, b_hi = disc.beta_range
    v_lo, v_hi = disc.v_range
    betas = np.arange(b_lo, b_hi + 1, dtype=np.int64)
    found = []
    for v in range(v_lo, v_hi + 1):
        num = p_idx * (n_res - v) * (n_res - betas)  # n = m * (N - beta)
        d = v * (n_res - p_idx)
        if d == 0:
            ok = betas[num == 0]
            for b in ok:
                for a in range(a_lo, a_hi + 1):
                    found.append((a, int(b), v))
            continue
        alphas, rem = np.divmod(num, d)
        mask = (rem == 0) & (alphas >= a_lo) & (alphas <= a_hi)
        for b, a in zip(betas[mask], alphas[mask]):
            found.append((int(a), int(b), v))
    return np.array(sorted(found), dtype=np.int64).reshape(-1, 3)


def naive_joint_count(
    s1: set[tuple[int, int, int]], s2: set[tuple[int, int, int]], eps_idx: int
) -> int:
    """Pairs within eps_idx on all three coordinates, by double loop."""
    count = 0
    for a1, b1, v1 in s1:
        for a2, b2, v2 in s2:
            if (
                abs(a1 - a2) <= eps_idx
                and abs(b1 - b2) <= eps_idx
                and abs(v1 - v2) <= eps_idx
            ):
                count += 1
    return count


def item_oracle(inst: SelectionInstance) -> int:
    """Max true positives over every C(n, k) item subset; -1 if infeasible.

    Integer cross-multiplied constraint checks; constraint evaluations
    are memoized on the (t, f) count vector since many subsets induce
    the same counts.
    """
    keys = [g.group_key for g in inst.groups]
    gidx = {key: i for i, key in enumerate(keys)}
    items = []  # (group index, label)
    for g in inst.groups:
        items += [(gidx[g.group_key], 1)] * g.positives
        items += [(gidx[g.group_key], 0)] * g.negatives
    P = [g.positives for g in inst.groups]
    N = [g.negatives for g in inst.groups]
    ri = gidx[inst.reference_group]
    lb = Fraction(str(inst.lb))
    ub = None if inst.ub == math.inf else Fraction(str(inst.ub))
    lb_n, lb_d = lb.numerator, lb.denominator
    if ub is not None:
        ub_n, ub_d = ub.numerator, ub.denominator
    cap = Fraction(str(inst.ppv_cap))
    cap_t = (cap.numerator * inst.k) // cap.denominator

    def ratio_ok(gn, gd, rn, rd):
        # gn/gd vs rn/rd within [lb, ub]; None denominators mean skip
        if gd == 0 or rd == 0:
            return True
        if gn * rd * lb_d < lb_n * rn * gd:
            return False
        if ub is not None and gn * rd * ub_d > ub_n * rn * gd:
            return False
        return True

    memo = {}

    def feasible(t, f):
        key = (t, f)
        if key not in memo:
            ok = True
            for j in range(len(keys)):
                if j == ri:
                    continue
                ok = (
                    ratio_ok(f[j], N[j], f[ri], N[ri])
                    and ratio_ok(P[j] - t[j], P[j], P[ri] - t[ri], P[ri])
                    and ratio_ok(t[j], t[j] + f[j], t[ri], t[ri] + f[ri])
                )
                if not ok:
                    break
            memo[key] = ok
        return memo[key]

    best = -1
    G = len(keys)
    for subset in itertools.combinations(range(len(items)), inst.k):
        t = [0] * G
        f = [0] * G
        for i in subset:
            j, label = items[i]
            if label:
                t[j] += 1
            else:
                f[j] += 1
        tp = sum(t)
        if tp <= best or tp > cap_t:
            continue
        if feasible(tuple(t), tuple(f)):
            best = tp
    return best


def _floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _num_interval(
    ref: Optional[Fraction], den: int, lb: Fraction, ub: Optional[Fraction]
) -> tuple[int, int]:
    """Integer range for a numerator x with lb*ref <= x/den <= ub*ref.

    ref is the reference metric value; None (undefined) or den == 0
    (group metric undefined) leaves the numerator unconstrained per the
    zero-denominator policy, i.e. anywhere in [0, den].
    """
    if ref is None or den == 0:
        return 0, den
    lo = _ceil_frac(lb * ref * den)
    hi = den if ub is None else _floor_frac(ub * ref * den)
    return lo, hi


def reference_solve_exact(inst: SelectionInstance) -> SelectionResult:
    """The Fraction-based solver, kept as the oracle for solve_exact.

    Maximizes selected true positives under all constraints, exactly.
    Enumerates the reference group's allocation first (fixing every
    ratio interval), then searches the remaining groups depth-first
    with an admissible bound; the last group is resolved in closed
    form. The returned allocation is re-verified by check_allocation.
    """
    lb = _to_fraction(inst.lb)
    ub = _to_fraction(inst.ub)
    cap_t = _floor_frac(_to_fraction(inst.ppv_cap) * inst.k)
    k = inst.k
    ref = next(g for g in inst.groups if g.group_key == inst.reference_group)
    others = [g for g in inst.groups if g.group_key != inst.reference_group]
    # capacity of groups after position i in the search order
    suffix_cap = [0] * (len(others) + 1)
    for i in range(len(others) - 1, -1, -1):
        suffix_cap[i] = suffix_cap[i + 1] + others[i].n

    best_t = -1
    best_alloc: Optional[list[tuple[str, int, int]]] = None

    def descend(i, used, cur_t, alloc, bounds):
        nonlocal best_t, best_alloc
        rem = k - used
        if rem < 0 or rem > suffix_cap[i]:
            return
        if i == len(others):
            if rem == 0 and cur_t > best_t:
                best_t = cur_t
                best_alloc = list(alloc)
            return
        g = others[i]
        t_lo, t_hi, f_lo, f_hi, p_lo, p_hi = bounds[i]
        # admissible bound: remaining groups contribute at most their
        # FNR-interval tops, never more than the budget or the cap
        optimistic = cur_t + min(
            sum(b[1] for b in bounds[i:]), rem, cap_t - cur_t
        )
        if optimistic <= best_t:
            return
        if i == len(others) - 1:
            # closed form: t + f = rem exactly
            if rem == 0:
                if t_lo <= 0 and f_lo <= 0:
                    descend(i + 1, used, cur_t, alloc + [(g.group_key, 0, 0)], bounds)
                return
            lo = max(t_lo, rem - min(f_hi, g.negatives), 0)
            hi = min(t_hi, rem - f_lo, g.positives, rem, cap_t - cur_t)
            if p_hi is not None:  # PPV wedge at fixed list size rem
                lo = max(lo, _ceil_frac(p_lo * rem))
                hi = min(hi, _floor_frac(p_hi * rem))
            if lo <= hi:
                descend(i + 1, k, cur_t + hi, alloc + [(g.group_key, hi, rem - hi)], bounds)
            return
        for t in range(min(t_hi, g.positives, rem, cap_t - cur_t), max(t_lo, 0) - 1, -1):
            f_top = min(f_hi, g.negatives, rem - t)
            for f in range(max(f_lo, 0), f_top + 1):
                if p_hi is not None and t + f > 0:
                    s = t + f
                    if not (p_lo * s <= t <= p_hi * s):
                        continue
                descend(i + 1, used + t + f, cur_t + t, alloc + [(g.group_key, t, f)], bounds)

    others_p = sum(g.positives for g in others)
    for t_ref in range(min(ref.positives, k, cap_t), -1, -1):
        # anything reachable from here on is bounded by this; t_ref descends
        if min(t_ref + others_p, cap_t) <= best_t:
            break
        for f_ref in range(0, min(ref.negatives, k - t_ref) + 1):
            fpr_ref = Fraction(f_ref, ref.negatives) if ref.negatives else None
            fnr_ref = Fraction(ref.positives - t_ref, ref.positives) if ref.positives else None
            ppv_ref = Fraction(t_ref, t_ref + f_ref) if t_ref + f_ref else None
            bounds = []
            ok = True
            for g in others:
                f_lo, f_hi = _num_interval(fpr_ref, g.negatives, lb, ub)
                fn_lo, fn_hi = _num_interval(fnr_ref, g.positives, lb, ub)
                t_lo, t_hi = g.positives - fn_hi, g.positives - fn_lo
                if ppv_ref is None:
                    p_lo = p_hi = None
                else:
                    p_lo = lb * ppv_ref
                    p_hi = Fraction(1) if ub is None else min(ub * ppv_ref, Fraction(1))
                if max(t_lo, 0) > min(t_hi, g.positives) or max(f_lo, 0) > min(
                    f_hi, g.negatives
                ):
                    ok = False
                    break
                bounds.append((t_lo, t_hi, f_lo, f_hi, p_lo, p_hi))
            if not ok:
                continue
            descend(0, t_ref + f_ref, t_ref, [(ref.group_key, t_ref, f_ref)], bounds)

    if best_alloc is None:
        return SelectionResult("infeasible", None, 0)
    allocation = GroupAllocation(
        t={key: t for key, t, _ in best_alloc},
        f={key: f for key, _, f in best_alloc},
    )
    check_allocation(inst, allocation)
    return SelectionResult("optimal", allocation, sum(allocation.t.values()))


def brute_force_mask(grid, fam, fill="curve-only"):
    """Planimeter mask, shaped (g, g) and indexed [ix, iy], by brute force.

    Per curve, every detector is compared with every in-square curve
    point by the same Euclidean test, distance <= r + 1e-12, on the same
    curve sampling as estimate_area; no lattice neighbourhood is used.
    """
    g = grid.g
    axis = np.linspace(0.0, 1.0, g)
    r = grid.radius
    step = r / 2.0
    xs = np.clip(np.arange(0.0, 1.0 + step / 2.0, step), 0.0, 1.0)
    satisfied = np.zeros((g, g), dtype=bool)
    for theta in fam.thetas:
        ys = np.asarray(fam.evaluator(xs, theta), dtype=float)
        inside = (ys >= 0.0) & (ys <= 1.0)
        dx2 = (axis[:, None] - xs[inside]) ** 2  # (g, points)
        dy2 = (axis[:, None] - ys[inside]) ** 2
        dist = np.sqrt(dx2[:, None, :] + dy2[None, :, :])  # (g, g, points)
        satisfied |= (dist <= r + 1e-12).any(axis=2)
        if fill != "curve-only":
            y_at = np.asarray(fam.evaluator(axis, theta), dtype=float)[:, None]  # per ix
            satisfied |= axis <= y_at if fill == "below" else axis >= y_at
    return satisfied


@dataclass(frozen=True)
class Row:
    label: int
    group_values: tuple[str, ...]
    row_ordinal: int


def _key_for(columns, row: Row, schema) -> str:
    parts = []
    for col in schema.sensitive_columns:  # schema order, not request order
        if col in columns:
            parts.append(row.group_values[schema.sensitive_columns.index(col)])
    return KEY_SEPARATOR.join(parts)


def reference_load_csv(path, schema) -> tuple[Row, ...]:
    """One DictReader record and one Row per data row, every cell checked."""
    needed = [schema.label_column, *schema.sensitive_columns]
    if schema.id_column:
        needed.append(schema.id_column)
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyFile(f"{path} has no header row")
        for col in needed:
            if col not in reader.fieldnames:
                raise MissingColumn(f"column {col!r} not in {path}")
        for i, rec in enumerate(reader):
            values = []
            for col in schema.sensitive_columns:
                v = rec.get(col)
                if v is None or v == "":
                    raise MissingValue(i, col)
                if KEY_SEPARATOR in v:
                    raise ValueError(
                        f"sensitive value {v!r} at row {i} contains the "
                        f"reserved separator {KEY_SEPARATOR!r}"
                    )
                values.append(v)
            label_cell = rec.get(schema.label_column)
            if label_cell is None or label_cell == "":
                raise MissingValue(i, schema.label_column)
            label = 1 if label_cell == schema.positive_value else 0
            rows.append(Row(label=label, group_values=tuple(values), row_ordinal=i))
    if not rows:
        raise EmptyFile(f"{path} has no data rows")
    return tuple(rows)


def reference_stratified_sample(
    rows: tuple[Row, ...], schema, columns, target_n: int, seed: int
) -> tuple[Row, ...]:
    """Stratified sample that shuffles each stratum's Row objects."""
    total = len(rows)
    if target_n > total:
        raise TargetTooLarge(f"target_n={target_n} exceeds cohort size {total}")
    strata: dict[tuple[str, int], list[Row]] = {}
    for row in rows:
        strata.setdefault((_key_for(columns, row, schema), row.label), []).append(row)

    keys = sorted(strata.keys())
    quotas = {k: divmod(target_n * len(strata[k]), total) for k in keys}
    base = {k: q for k, (q, _) in quotas.items()}
    leftover = target_n - sum(base.values())
    by_remainder = sorted(keys, key=lambda k: (-quotas[k][1], k))
    for k in by_remainder[:leftover]:
        base[k] += 1

    rng = random.Random(seed)
    chosen: list[Row] = []
    for k in keys:
        stratum = list(strata[k])
        rng.shuffle(stratum)
        chosen.extend(stratum[: base[k]])
    chosen.sort(key=lambda r: r.row_ordinal)
    return tuple(chosen)
