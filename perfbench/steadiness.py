"""Steadiness report and baseline: every workload, two sets of seeded runs.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/baseline.json

For each workload in BENCHMARK.json this runs run.py --trace 0 once per
seed (1..runs, one process at a time), then the same seeds again as a
second set of runs of the same code. Per end-to-end metric and set it
reports the median, the quartiles (statistics.quantiles, n=4) and the
spread, which is the interquartile distance as a share of the median; the
metric's bound in BENCHMARK.json must stay above the spread, and the
second set's median may not be worse than the first's by more than the
bound. The same figures are given for the raw, not speed-adjusted, times,
with the ratio of the adjusted to the raw median.

One --trace 1 run per workload (seed 1) gives each layer's share of the
traced operation time and checks the traced run's figures: the overhead
must be at least 0 within two standard errors, and the layer self times
(cli.self_s included) must account for the untraced operation time within
the overhead. The report also records the machine and the metric
definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RAW_PREFIX = "raw wall times:"


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    raw = [line for line in lines if line.startswith(RAW_PREFIX)]
    if raw:  # "raw wall times: setup_s 0.6560, reference_import_s 0.6088, ..."
        pairs = (item.split() for item in raw[0][len(RAW_PREFIX):].split(","))
        result["raw"] = {name: float(value) for name, value in pairs}
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def summarize_set(runs: list[dict], spec: dict) -> dict:
    out = {"attempted": [r["attempted"] for r in runs]}
    for m in spec["end_to_end"]:
        s = summarize([r["metrics"][m["name"]]["value"] for r in runs])
        if m["name"] in runs[0]["raw"]:
            s["raw"] = summarize([r["raw"][m["name"]] for r in runs])
            s["adjusted_over_raw"] = s["median"] / s["raw"]["median"]
        out[m["name"]] = s
    for name in ("reference_import_s", "probe_s"):
        out[name] = summarize([r["raw"][name] for r in runs])
    return out


def worsening(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first."""
    return (second - first) / first if better == "lower" else (first - second) / first


def check_trace(t: dict) -> dict:
    overhead, se = t["trace.overhead_s"], t["trace.overhead_se_s"]
    gap = t["trace.layer_self_sum_s"] - t["trace.untraced_op_s"]
    return {
        "overhead_nonnegative": overhead >= -2 * se,
        "layer_self_minus_untraced_s": gap,
        "layers_account_for_untraced": abs(gap) <= max(overhead, 0.0) + 2 * se,
    }


def machine() -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default=None, help="write the report here as JSON")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.runs + 1))
    report = {
        "machine": machine(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
        "metrics": {m["name"]: {"unit": m["unit"], "better": m["better"], "bound": m.get("bound")}
                    for m in spec["end_to_end"] + spec["per_layer"]},
        "end_to_end": {},
        "traced": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        sets = [summarize_set([bench(name, seed, seconds, 0) for seed in seeds], spec)
                for _ in range(2)]
        agreement = {}
        for m in spec["end_to_end"]:
            a, b = (s[m["name"]] for s in sets)
            worse = worsening(a["median"], b["median"], m["better"])
            agreement[m["name"]] = {"second_worse_by": worse, "within_bound": worse <= m["bound"]}
            for label, s in zip("AB", (a, b)):
                flag = "" if s["spread"] <= m["bound"] / 3 else "  <-- above bound/3"
                raw = (f"  raw spread {s['raw']['spread']:.3f} adjusted/raw "
                       f"{s['adjusted_over_raw']:.3f}" if "raw" in s else "")
                print(f"{name:16s} {label} {m['name']:12s} median {s['median']:.4f} "
                      f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.3f} "
                      f"(bound {m['bound']}){raw}{flag}", flush=True)
            print(f"{name:16s}   {m['name']:12s} second set worse by {worse:+.3f}", flush=True)
        report["end_to_end"][name] = {"sets": sets, "agreement": agreement}

        traced = {k: v["value"] for k, v in bench(name, seeds[0], seconds, 1)["metrics"].items()}
        op = traced["trace.op_s"]
        traced["layer_share"] = {layer: traced[f"{layer}.self_s"] / op for layer in LAYERS}
        traced["checks"] = check_trace(traced)
        report["traced"][name] = traced
        print(f"{name:16s} layer shares " + " ".join(
            f"{k}={v:.3f}" for k, v in traced["layer_share"].items()), flush=True)
        print(f"{name:16s} overhead {traced['trace.overhead_s']:+.4f} s "
              f"(se {traced['trace.overhead_se_s']:.4f}) {traced['checks']}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
