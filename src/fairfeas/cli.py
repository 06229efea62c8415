"""Command-line front end: area, region, analyze, planimeter.

`area` and `analyze` run on the numpy-free layers imported here;
`region` and `planimeter` import their numpy layers when they run.
Exit codes: 0 success; 1 the requested single-k selection is
infeasible; 2 usage or domain error; 3 internal error. All file outputs
are written atomically (temp file in the target directory, then rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from . import data, relations, selection
from .errors import DomainError, FairfeasError, ZeroEpsP


def _atomic_write(path, writer) -> None:
    """Call writer(temp_path), then rename the temp file onto path."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_k_grid(text: str) -> tuple[int, ...]:
    try:
        grid = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise FairfeasError(f"bad k grid {text!r}: comma-separated integers") from exc
    try:
        selection.check_k_grid(grid)
    except ValueError as exc:
        raise FairfeasError(str(exc)) from exc  # keeps the usage error's stderr text
    return grid


def cmd_area(args) -> int:
    spec = relations.RegionSpec(gamma=args.gamma, eps_p=args.eps_p, p=args.p)
    print(relations.fairness_area_acc(spec))
    return 0


def _grid_index(flag: str, value: float, n: int, rounding=round) -> int:
    """value * n rounded to a grid index; a non-finite product is a usage error."""
    scaled = value * n
    if not math.isfinite(scaled):
        raise DomainError(f"{flag} {value} times n={n} is not a finite number")
    return rounding(scaled)


def cmd_region(args) -> int:
    from . import pgm, region

    disc = region.Discretization(
        n=args.n,
        # inner rounding keeps the window conservative: e.g. max 0.99 at
        # n=10 is index 9 (PPV 0.9), never the perfect-prediction edge
        v_range=(
            _grid_index("--ppv-min", args.ppv_min, args.n, math.ceil),
            _grid_index("--ppv-max", args.ppv_max, args.n, math.floor),
        ),
    )
    if args.single_cell:
        if args.p1 is None or args.p2 is None:
            raise FairfeasError("--single-cell requires --p1 and --p2")
        if not 0.0 <= args.eps <= 1.0:
            raise ValueError(f"--eps must lie in [0, 1], got {args.eps}")
        p1 = _grid_index("--p1", args.p1, args.n)
        p2 = _grid_index("--p2", args.p2, args.n)
        eps_idx = _grid_index("--eps", args.eps, args.n)
        s1 = region.enumerate_triples(p1, disc)
        s2 = s1 if p2 == p1 else region.enumerate_triples(p2, disc)
        print(region.count_joint((s1, s2), eps_idx))
        return 0
    hm = region.heatmap(disc, eps_max=args.eps, p_grid_step=args.step)
    os.makedirs(args.out_dir, exist_ok=True)
    _atomic_write(
        os.path.join(args.out_dir, "heatmap.csv"),
        lambda tmp: region.heatmap_to_csv(hm, tmp),
    )
    _atomic_write(
        os.path.join(args.out_dir, "heatmap.pgm"),
        lambda tmp: pgm.write_pgm(hm.counts, tmp),
    )
    print(hm.total)
    return 0


def _grouping_from_arg(text: str, schema, coarser=None) -> data.GroupingSpec:
    grouping = data.GroupingSpec(columns=tuple(text.split(",")))
    grouping.check(schema, coarser)
    return grouping


def cmd_analyze(args) -> int:
    schema = data.TableSchema.from_json(args.schema)
    # every check that needs no rows runs before the file is read
    grouping = _grouping_from_arg(args.grouping, schema)
    fine = _grouping_from_arg(args.intersect, schema, grouping) if args.intersect else None
    if args.sample_n is not None:
        data.check_sample_size(args.sample_n)
    selection.check_constraints(args.cap, args.lb, args.ub)
    k_grid = _parse_k_grid(args.k_grid)
    cohort = data.load_csv(args.csv, schema)
    if args.sample_n is not None:
        cohort = data.stratified_sample(cohort, grouping, args.sample_n, args.seed)
    stats = data.group_stats(cohort, grouping)
    supplies = tuple(
        selection.GroupSupply(g.group_key, g.p_count, g.n - g.p_count)
        for g in stats.groups
    )
    scan = selection.k_scan(
        supplies,
        cap=args.cap,
        bounds=(args.lb, args.ub),
        k_grid=k_grid,
    )
    report = {
        "n": stats.total,
        "grouping": list(grouping.columns),
        "overall_prevalence": stats.overall_prevalence,
        "groups": [
            {
                "key": g.group_key,
                "n": g.n,
                "positives": g.p_count,
                "prevalence": g.prevalence,
                "distribution_pct": stats.distribution_pct[g.group_key],
            }
            for g in stats.groups
        ],
        "max_prevalence_diff": stats.max_prevalence_diff,
        "k_scan": dataclasses.asdict(scan),
    }
    if fine is not None:
        bracket = data.intersection_bracketing_check(cohort, grouping, fine)
        report["intersection"] = {
            "columns": list(fine.columns),
            "coarse_max_prevalence_diff": bracket.coarse_diff,
            "intersectional_max_prevalence_diff": bracket.intersectional_diff,
            "per_group_bracketing": bracket.per_group_bracketing,
            "passed": bracket.passed,
        }
    text = json.dumps(report, indent=2)
    if args.out:
        _atomic_write(args.out, lambda tmp: Path(tmp).write_text(text))
    print(text)
    if len(k_grid) == 1 and scan.rows[0].constrained_tp is None:
        return 1
    return 0


def _family_from_args(args, grid):
    from . import planimeter

    if args.family == "line:y=x":
        return planimeter.line_family(1.0, [0.0])
    if args.family == "acc-band":
        if args.gamma is None or args.eps_p is None:
            raise FairfeasError("acc-band requires --gamma and --eps-p")
        if args.eps_p == 0.0:
            raise ZeroEpsP("equal-prevalence case is excluded")
        if not args.gamma >= 0.0:
            raise DomainError(f"--gamma must be a number >= 0, got {args.gamma}")
        ratio = 2.0 * args.gamma / abs(args.eps_p)
        if math.isnan(ratio):
            raise DomainError(f"--gamma {args.gamma} over --eps-p {args.eps_p} is not a number")
        return planimeter.acc_band_family(min(ratio, 1.0), grid.radius)
    raise FairfeasError(f"unknown family {args.family!r}")


def cmd_planimeter(args) -> int:
    from . import pgm, planimeter

    g = args.g if args.g is not None else planimeter.required_grid_size(args.b, args.err)
    grid = planimeter.DetectorGrid(g=g)
    fam = _family_from_args(args, grid)
    est, mask = planimeter.estimate_area(grid, fam, fill=args.fill)
    os.makedirs(args.out_dir, exist_ok=True)
    _atomic_write(
        os.path.join(args.out_dir, "planimeter.json"),
        lambda tmp: Path(tmp).write_text(planimeter.estimate_to_json(est, g)),
    )
    _atomic_write(
        os.path.join(args.out_dir, "mask.pgm"),
        lambda tmp: pgm.write_pgm(mask, tmp),
    )
    print(est.fraction)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairfeas",
        description="Feasibility analysis for approximate multi-metric group fairness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_area = sub.add_parser("area", help="closed-form fairness-region area")
    p_area.add_argument("--gamma", type=float, required=True, help="shared metric tolerance")
    p_area.add_argument("--eps-p", type=float, required=True, help="prevalence gap p2 - p1")
    p_area.add_argument("--p", type=float, default=0.5, help="group-1 prevalence (default 0.5)")
    p_area.set_defaults(func=cmd_area)

    p_region = sub.add_parser("region", help="discretized feasible-pair counting")
    p_region.add_argument("--n", type=int, default=100, help="grid resolution (default 100)")
    p_region.add_argument("--eps", type=float, default=0.0, help="shared metric tolerance (default 0)")
    p_region.add_argument("--step", type=float, default=0.01, help="prevalence grid step (default 0.01)")
    p_region.add_argument("--ppv-min", type=float, default=0.0, help="PPV window lower edge (default 0)")
    p_region.add_argument("--ppv-max", type=float, default=0.99, help="PPV window upper edge (default 0.99)")
    p_region.add_argument("--p1", type=float, default=None, help="first prevalence for --single-cell")
    p_region.add_argument("--p2", type=float, default=None, help="second prevalence for --single-cell")
    p_region.add_argument("--single-cell", action="store_true", help="count one (p1, p2) cell only")
    p_region.add_argument("--out-dir", default=".", help="directory for heatmap.csv/.pgm (default .)")
    p_region.set_defaults(func=cmd_region)

    p_an = sub.add_parser("analyze", help="dataset feasibility report with k-scan")
    p_an.add_argument("--csv", required=True, help="input CSV path")
    p_an.add_argument("--schema", required=True, help="schema JSON path")
    p_an.add_argument("--grouping", required=True, help="comma-separated sensitive columns")
    p_an.add_argument("--intersect", default=None, help="comma-separated refinement columns")
    p_an.add_argument("--cap", type=float, default=0.7, help="selection PPV cap (default 0.7)")
    p_an.add_argument("--lb", type=float, default=0.8, help="disparity ratio lower bound (default 0.8)")
    p_an.add_argument("--ub", type=float, default=1.2, help="disparity ratio upper bound (default 1.2)")
    p_an.add_argument("--k-grid", default=",".join(map(str, selection.DEFAULT_K_GRID)), help="comma-separated k percents")
    p_an.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p_an.add_argument("--sample-n", type=int, default=None, help="stratified sample size")
    p_an.add_argument("--out", default=None, help="also write the JSON report here")
    p_an.set_defaults(func=cmd_analyze)

    p_pl = sub.add_parser("planimeter", help="dot-planimeter area estimate")
    p_pl.add_argument("--g", type=int, default=None, help="detectors per side")
    p_pl.add_argument("--b", type=int, default=6, help="error-bound constant (default 6)")
    p_pl.add_argument("--err", type=float, default=0.05, help="target error when --g is absent (default 0.05)")
    p_pl.add_argument("--family", required=True, help="curve family: line:y=x or acc-band")
    p_pl.add_argument("--fill", choices=["below", "above", "curve-only"], default="curve-only", help="side of the curves to fill (default curve-only)")
    p_pl.add_argument("--gamma", type=float, default=None, help="tolerance for acc-band")
    p_pl.add_argument("--eps-p", type=float, default=None, help="prevalence gap for acc-band")
    p_pl.add_argument("--out-dir", default=".", help="directory for planimeter.json and mask.pgm (default .)")
    p_pl.set_defaults(func=cmd_planimeter)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FairfeasError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
