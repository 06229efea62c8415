"""Independent oracles shared by the unit and acceptance tests.

These deliberately avoid the library's own code paths: the triple
oracle checks the defining relation with exact Fractions, the selection
oracle enumerates every C(n, k) item subset, and the planimeter oracle
measures every detector against every curve point.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from fairfeas.selection import SelectionInstance


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


def brute_force_mask(grid, fam, fill="curve-only", sample_step=None, radius=None):
    """Planimeter mask, shaped (g, g) and indexed [ix, iy], by brute force.

    Per curve, every detector is compared with every in-square curve
    point by the same Euclidean test, distance <= r + 1e-12, on the same
    curve sampling as estimate_area; no lattice neighbourhood is used.
    """
    g = grid.g
    axis = np.linspace(0.0, 1.0, g)
    r = grid.radius if radius is None else radius
    step = r / 2.0 if sample_step is None else sample_step
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
