"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines alongside the pytest output.
"""

import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from fairfeas.data import Cohort, GroupingSpec, TableSchema, intersection_bracketing_check
from fairfeas.errors import SingularDenominator
from fairfeas.metrics import expected_ppv_at_k
from fairfeas.planimeter import (
    DetectorGrid,
    acc_band_family,
    estimate_area,
    line_family,
)
from fairfeas.region import (
    Discretization,
    count_joint,
    enumerate_triples,
    heatmap,
    ppv_binned_counts,
)
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
from fairfeas.selection import GroupSupply, SelectionInstance, k_scan, solve_exact
from helpers import item_oracle, naive_joint_count, naive_triples


def verdict(n, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_identity_suite():
    t0 = time.time()
    rng = np.random.default_rng(1)
    tp, fp, tn, fn = rng.integers(0, 1000, size=(4, 100_000))
    total = tp + fp + tn + fn
    keep = (total > 0) & (tp + fp > 0) & (fp + tn > 0) & (tp + fn > 0) & (tn + fn > 0)
    tp, fp, tn, fn, total = (a[keep].astype(float) for a in (tp, fp, tn, fn, total))
    p = (tp + fn) / total
    ppv = tp / (tp + fp)
    fpr = fp / (fp + tn)
    fnr = fn / (fn + tp)
    acc = (tp + tn) / total
    inner = (p < 1) & (ppv > 0)
    lhs = fpr[inner]
    rhs = (p[inner] / (1 - p[inner])) * ((1 - ppv[inner]) / ppv[inner]) * (1 - fnr[inner])
    err1 = np.abs(lhs - rhs).max()
    err2 = np.abs(acc - ((1 - fnr) * p + (1 - fpr) * (1 - p))).max()
    elapsed = time.time() - t0
    ok = err1 < 1e-12 and err2 < 1e-12 and elapsed < 5.0
    verdict(
        1,
        ok,
        f"rate/accuracy identities on {keep.sum()} random count matrices: "
        f"max residuals {err1:.2e}/{err2:.2e} in {elapsed:.1f}s",
    )


def test_criterion_2_area_vs_monte_carlo():
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    m = 1_000_000
    for _ in range(100):
        eps_p = float(rng.uniform(0.05, 0.45)) * float(rng.choice([-1.0, 1.0]))
        gamma = float(rng.uniform(0.001, abs(eps_p) / 2.0))
        p = 0.5 - max(eps_p, 0.0)  # keep p and p + eps_p inside (0, 1)
        spec = RegionSpec(gamma=gamma, eps_p=eps_p, p=p)
        area = fairness_area_acc(spec)
        c = 2.0 * gamma / abs(eps_p)
        hits = np.abs(rng.random(m) - rng.random(m)) <= c
        est = hits.mean()
        se = math.sqrt(max(est * (1 - est), 1e-12) / m)
        worst = max(worst, abs(est - area) / (3 * se))
        if abs(est - area) > 3 * se:
            break
    elapsed = time.time() - t0
    ok = worst <= 1.0 and elapsed < 60.0
    verdict(
        2,
        ok,
        f"closed-form area vs Monte Carlo (100 specs, 1e6 samples): "
        f"worst |err|/3SE = {worst:.2f} in {elapsed:.1f}s",
    )


def test_criterion_3_governing_residuals():
    t0 = time.time()
    rng = random.Random(3)
    worst_acc = worst_ppv = 0.0
    n = 0
    while n < 10_000:
        p = rng.uniform(0.05, 0.95)
        eps_p = rng.uniform(0.01, 0.3) * rng.choice([-1, 1])
        if not 0.0 < p + eps_p < 1.0:
            continue
        r = AccRelaxation(
            eps_fpr=rng.uniform(-0.2, 0.2),
            eps_fnr=rng.uniform(-0.2, 0.2),
            eps_acc=rng.uniform(-0.2, 0.2),
            eps_p=eps_p,
            p=p,
        )
        fpr1 = rng.random()
        worst_acc = max(worst_acc, abs(residual_acc_balance(r, fpr1, relaxed_fnr_acc(r, fpr1))))
        n += 1
    n = 0
    while n < 10_000:
        p, v = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        eps_p, eps_v = rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)
        if not (0.0 < p + eps_p < 1.0 and 0.0 < v + eps_v < 1.0):
            continue
        r = PpvRelaxation(
            eps_fpr=rng.uniform(-0.2, 0.2),
            eps_fnr=rng.uniform(-0.2, 0.2),
            eps_v=eps_v,
            eps_p=eps_p,
            p=p,
            v=v,
        )
        try:
            beta = relaxed_fnr_ppv(r)
        except SingularDenominator:
            continue
        worst_ppv = max(worst_ppv, abs(residual_ppv_balance(r, beta)))
        n += 1
    elapsed = time.time() - t0
    ok = worst_acc < 1e-9 and worst_ppv < 1e-9 and elapsed < 5.0
    verdict(
        3,
        ok,
        f"governing-equation residuals over 2x10^4 random inputs: "
        f"worst {worst_acc:.2e}/{worst_ppv:.2e} in {elapsed:.1f}s",
    )


def test_criterion_4_enumeration_oracle():
    ok = True
    for n in (5, 10, 20):
        disc = Discretization(n=n)
        sets = {}
        for p_idx in range(1, n):
            got = {tuple(r) for r in enumerate_triples(p_idx, disc).triples}
            expected = naive_triples(p_idx, disc)
            ok = ok and got == expected
            sets[p_idx] = got
        pairs = [(1, n // 2), (n // 2, n // 2), (n // 2, n - 1)]
        for p1, p2 in pairs:
            for eps_idx in (0, 1, 2):
                joint = count_joint(
                    (enumerate_triples(p1, disc), enumerate_triples(p2, disc)), eps_idx
                )
                ok = ok and joint == naive_joint_count(sets[p1], sets[p2], eps_idx)
    hand = len(enumerate_triples(5, Discretization(n=10)))
    ok = ok and hand == 24
    verdict(
        4,
        ok,
        f"enumeration and joint counts match exact-rational oracle for "
        f"n in {{5, 10, 20}}; hand-derived count at (n=10, p=0.5) = {hand}",
    )


def test_criterion_5_grid_counts_with_sensitivity():
    t0 = time.time()
    disc = Discretization(n=100)
    eps_grid = (0.0, 0.02, 0.05, 0.1)
    totals = {}
    hm0 = heatmap(disc, eps_max=0.0)
    totals[0.0] = hm0.total
    for eps in eps_grid[1:]:
        totals[eps] = heatmap(disc, eps_max=eps).total
    bins = ppv_binned_counts(disc, eps_max=0.05)
    heatmap_seconds = time.time() - t0

    exact = (
        totals[0.0] == 3640
        and totals[0.1] == 199_314
        and bins[0] == 7554
        and bins[-1] == 10_007
    )
    off_diag = hm0.counts - np.diag(np.diag(hm0.counts))
    diagonal_only = off_diag.sum() == 0
    monotone = all(totals[a] < totals[b] for a, b in zip(eps_grid, eps_grid[1:]))
    lowest_to_highest = bins[0] < bins[-1]

    print("\n  sensitivity table (eps, p-grid step, eps mode -> total):")
    for eps in (0.0, 0.1):
        for step in (0.01, 0.02):
            for strict in (False, True):
                total = heatmap(disc, eps_max=eps, p_grid_step=step, strict_eps=strict).total
                mode = "strict" if strict else "inclusive"
                print(f"    eps={eps} step={step} {mode}: {total}")
    print(f"  totals by eps: {totals}")
    print(f"  PPV-bin totals at eps=0.05 (lowest..highest): {bins}")

    ok = (exact or (diagonal_only and monotone and lowest_to_highest)) and (
        heatmap_seconds < 300.0
    )
    verdict(
        5,
        ok,
        f"grid counts at n=100: exact-target match={exact}; fallback checks "
        f"diagonal-only={diagonal_only}, eps-monotone={monotone}, "
        f"lowest-to-highest-bin-growth={lowest_to_highest} "
        f"({heatmap_seconds:.2f}s for 5 heatmaps + bins)",
    )


def test_criterion_6_planimeter():
    t0 = time.time()
    ok = True
    fractions = {}
    for g in (10, 40, 120, 360):
        est, _ = estimate_area(DetectorGrid(g=g), line_family(1.0, [0.0]), fill="below")
        fractions[g] = est.fraction
        ok = ok and abs(est.fraction - 0.5) <= 1.0 / g
    rng = random.Random(6)
    worst = 0.0
    g = 60
    grid = DetectorGrid(g=g)
    for _ in range(20):
        eps_p = rng.uniform(0.05, 0.45) * rng.choice([-1, 1])
        gamma = rng.uniform(0.005, 0.4)
        spec = RegionSpec(gamma=gamma, eps_p=eps_p, p=0.5 - max(eps_p, 0.0))
        c_max = min(2.0 * gamma / abs(eps_p), 1.0)
        est, _ = estimate_area(grid, acc_band_family(c_max, grid.spacing))
        worst = max(worst, abs(est.fraction - fairness_area_acc(spec)) * g)
    elapsed = time.time() - t0
    ok = ok and worst <= 2.0 and elapsed < 30.0
    verdict(
        6,
        ok,
        f"planimeter: half-square within 1/g for g in {{10,40,120,360}}; "
        f"band estimates within {worst:.2f}/g of closed form over 20 specs "
        f"in {elapsed:.1f}s",
    )


SCHEMA = TableSchema(
    label_column="y", positive_value="1", sensitive_columns=("a", "b")
)


def test_criterion_7_intersectionality_property():
    rng = random.Random(7)
    ok = True
    for _ in range(1000):
        size = rng.randint(4, 60)
        cells = Counter()
        for _ in range(size):
            # draw order per row: label, then the two values
            label = rng.randint(0, 1)
            cells[(rng.choice("xyz"), rng.choice("uv")), label] += 1
        cohort = Cohort(cells=cells, schema=SCHEMA)
        report = intersection_bracketing_check(
            cohort, GroupingSpec(columns=("a",)), GroupingSpec(columns=("a", "b"))
        )
        ok = ok and report.passed
        if not ok:
            break
    verdict(7, ok, "1000 random cohorts: refinement never shrinks prevalence spread")


def test_criterion_8_ppv_at_k_monotone():
    rng = random.Random(8)
    ok = True
    for _ in range(1000):
        probs = sorted((rng.random() for _ in range(rng.randint(1, 60))), reverse=True)
        vals = [expected_ppv_at_k(probs, k) for k in range(1, len(probs) + 1)]
        ok = ok and all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        if not ok:
            break
    verdict(8, ok, "1000 random calibrated rankings: precision-at-k non-increasing")


def test_criterion_9_selection_exactness():
    t0 = time.time()
    rng = random.Random(9)
    ok = True
    for trial in range(1000):
        n_groups = rng.randint(1, 3)
        while True:
            sizes = [rng.randint(1, 20) for _ in range(n_groups)]
            if sum(sizes) <= 20:
                break
        groups = []
        for j, size in enumerate(sizes):
            p = rng.randint(0, size)
            groups.append(GroupSupply(f"g{j}", p, size - p))
        total = sum(g.n for g in groups)
        inst = SelectionInstance(
            groups=tuple(groups),
            k=rng.randint(1, total),
            ppv_cap=rng.choice([0.5, 0.7, 0.85, 1.0]),
        )
        expected = item_oracle(inst)
        res = solve_exact(inst)
        got = res.tp_total if res.status == "optimal" else -1
        if got != expected:
            ok = False
            print(f"\n  mismatch on trial {trial}: {inst} oracle={expected} solver={got}")
            break
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    verdict(
        9,
        ok,
        f"1000 random instances (<= 20 items): group-count optimum equals "
        f"item-level brute force in {elapsed:.1f}s",
    )


def test_criterion_10_k_scan_regimes():
    equal = k_scan(
        (GroupSupply("a", 100, 100), GroupSupply("b", 100, 100)), cap=0.7
    ).summary
    skew_low = k_scan(
        (GroupSupply("a", 2, 98), GroupSupply("b", 20, 80)), cap=0.7
    ).summary
    near_half = k_scan(
        (GroupSupply("a", 80, 120), GroupSupply("b", 120, 80)), cap=0.7
    ).summary
    near_half_wide = False
    if near_half.startswith("["):
        lo, hi = (int(x) for x in near_half.strip("[]").split(","))
        near_half_wide = hi - lo >= 25
    elif near_half == "All":
        near_half_wide = True
    ok = (
        equal == "All"
        and skew_low in ("None", "[5,5]", "[5,10]")
        and near_half_wide
    )
    verdict(
        10,
        ok,
        f"k-scan regimes: equal-prevalence -> {equal}; low-prevalence large-gap "
        f"-> {skew_low}; near-50% large-gap -> {near_half}",
    )
