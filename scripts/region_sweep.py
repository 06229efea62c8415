"""Sweep the discretized feasible-pair counts over tolerance settings.

Produces three artifacts in --out-dir:
  totals.csv        heatmap totals for eps in {0, 0.02, 0.05, 0.1}
  sensitivity.csv   totals over grid step {0.01, 0.02} x {inclusive, strict}
  ppv_bins.csv      per-PPV-bin totals at eps = 0.05

At n=100 the first heatmap takes about 0.05-0.07 s and each later one
about 0.02 s, because the triple sets are enumerated once for the whole
sweep; the whole script takes about 0.4-0.7 s (2-vCPU shared machine,
Python 3.11, numpy 2.4).
"""

import argparse
import csv
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fairfeas.region import Discretization, heatmap, ppv_binned_counts, quartile_bins


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--out-dir", default="region_sweep_out")
    args = ap.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    disc = Discretization(n=args.n)

    with open(os.path.join(args.out_dir, "totals.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["eps", "total", "seconds"])
        for eps in (0.0, 0.02, 0.05, 0.1):
            t0 = time.time()
            hm = heatmap(disc, eps_max=eps)
            w.writerow([eps, hm.total, f"{time.time() - t0:.2f}"])
            print(f"eps={eps}: total={hm.total}")

    with open(os.path.join(args.out_dir, "sensitivity.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["eps", "p_grid_step", "eps_mode", "total"])
        for eps in (0.0, 0.1):
            for step in (0.01, 0.02):
                for strict in (False, True):
                    hm = heatmap(disc, eps_max=eps, p_grid_step=step, strict_eps=strict)
                    mode = "strict" if strict else "inclusive"
                    w.writerow([eps, step, mode, hm.total])
                    print(f"eps={eps} step={step} {mode}: {hm.total}")

    with open(os.path.join(args.out_dir, "ppv_bins.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ppv_lo_idx", "ppv_hi_idx", "total"])
        bins = quartile_bins(disc)
        totals = ppv_binned_counts(disc, eps_max=0.05, bins=bins)
        for (lo, hi), total in zip(bins, totals):
            w.writerow([lo, hi, total])
            print(f"PPV bin [{lo}, {hi}]: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
