"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record.py        # writes perfbench/expected.json

The committed expected.json was recorded from the commit that introduced
the benchmark; the outputs of later commits must match it bit for bit.
Region totals and heatmap CSV digests cover every (eps, PPV window) the
region-sweep workload can draw. The analyze k-scan rows and the
planimeter mask do not depend on the seed (group counts and band width
are fixed by the workload), so they are recorded for seed 0.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import HERE, OUT_DIR, import_fairfeas
from workloads import PPV_BINS, REGION_EPS_IDX, REGION_N, WORKLOADS, bin_key, sha256


def first_output(wl):
    op = wl.prepare(0)
    out = wl.collect(op, wl.execute(op))
    wl.cleanup(op)
    return out


def main() -> int:
    ff = import_fairfeas()
    workdir = os.path.join(OUT_DIR, "record")
    os.makedirs(workdir, exist_ok=True)
    try:
        expected = {}
        sweep = WORKLOADS["region-sweep"](ff, 0, workdir, {})
        disc = ff.region.Discretization(n=REGION_N)
        totals, digests = {}, []
        for window in (None, *PPV_BINS):
            series = totals.setdefault(bin_key(window), [])
            for eps_idx in REGION_EPS_IDX:
                out = sweep.run_query(disc, eps_idx, window, workdir)
                series.append(int(out.text))
                if window is None:
                    with open(os.path.join(workdir, "heatmap.csv"), "rb") as fh:
                        digests.append(sha256(fh.read()))
                print(bin_key(window), eps_idx, series[-1], flush=True)
        expected["region-sweep"] = {"n": REGION_N, "totals": totals, "csv_sha256": digests}

        for name in ("analyze-4g", "analyze-sampled"):
            wl = WORKLOADS[name](ff, 0, workdir, {})
            report = json.loads(first_output(wl).text)
            expected[name] = report["k_scan"]
            print(name, report["k_scan"]["summary"], flush=True)

        out = first_output(WORKLOADS["planimeter-band"](ff, 0, workdir, {}))
        est = json.loads(out.files["planimeter.json"])
        expected["planimeter-band"] = {
            "g": est["g"],
            "satisfied": est["satisfied"],
            "fraction": est["fraction"],
            "mask_sha256": sha256(out.files["mask.pgm"]),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
