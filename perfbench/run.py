"""fairfeas benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src. The
workloads and their reasons are in workloads.py; the metric names, units
and bounds in ../BENCHMARK.json.

--trace 0 reports the end-to-end metrics:
  setup_s      time to `import fairfeas.cli` in a fresh interpreter,
               speed-adjusted (below); median of 5 (one more runs first,
               untimed, to fill the bytecode cache)
  cmd_s_p50    median wall time of one operation after a small warm-up,
               speed-adjusted
  ops_per_s    operations per second of operation time, i.e. with input
               generation and output checks (done between operations) left
               out, speed-adjusted
  peak_rss_mb  peak resident memory of this process
  ok_frac      1 - failed/attempted (the failure fraction itself is 0 on a
               correct program, and a metric that reads 0 is not usable)

The CPU speed a process sees on a shared machine drifts by +-25% over
tens of seconds, so the time metrics are adjusted to a reference speed,
each by a reference of work like its own:
  cmd_s_p50, ops_per_s  each operation's wall time is scaled by the speed
               probe (speed.py) taken just before and after it in a helper
               process of its own
  setup_s      each import is scaled by the time of a fixed reference
               import (numpy and scipy.spatial, in a fresh interpreter)
               taken right after it; an interpreter loop does not track
               the loading of compiled libraries, this does
The run pins itself, and with it the helper and the import children, to
the CPU it started on, so that each reference times the CPU the measured
work ran on. The raw values are printed on the line before the result.

--trace 1 reports the per-layer metrics (tracing.py), as means per
operation. Each operation runs twice on the same input, once with spans
around every public function of the layer modules and once untraced,
back to back so that both see nearly the same machine speed. The traced run goes first on even and second on odd
operations, so that an order effect cancels out; garbage is collected
before each. The two outputs must be byte-identical. The tracing overhead
is the mean of the paired differences, reported with its standard error.
After the run no wrapper may be left in place. The spans are written to
.perfbench/spans-<workload>-seed<seed>.json.

A run stops when its operations have taken --seconds in total, when the
workload's distinct inputs are used up, or after 4 x --seconds of wall
time, whichever comes first. Every output is checked against the values
recorded from the seed commit in expected.json; any failed check,
exception or unexpected exit code counts as a failed operation. After the
loop a deliberately corrupted output must be rejected by the same checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from speed import SpeedAdjuster

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 5
#: A typical reference import on the machine the baseline was taken on
#: (2 vCPU x86-64, Python 3.11.7, numpy 2.4.6, scipy 1.17.1); setup_s is
#: in seconds at that speed.
SETUP_REF_S = 0.50


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_child(statement: str) -> str:
    return f"import time\nt0 = time.perf_counter()\n{statement}\nprint(time.perf_counter() - t0)\n"


SETUP_CHILD = import_child("import fairfeas.cli")
#: Fixed work of the same kind as the setup, outside the repository: the
#: installed numpy and scipy.spatial, which make up most of today's setup.
REFERENCE_CHILD = import_child("import numpy, scipy.spatial")


def measure_setup() -> tuple[float, float, float]:
    """Adjusted setup time, raw setup time and raw reference time.

    Each sample is a fresh interpreter importing fairfeas.cli, then one
    importing the reference; the setup time is scaled by the reference
    time next to it. One untimed import runs first to fill the bytecode
    cache. All three figures are medians over the samples.
    """
    env = dict(os.environ, PYTHONPATH=SRC)

    def timed(child: str) -> float:
        cmd = [sys.executable, "-c", child]
        out = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        return float(out.stdout)

    timed(SETUP_CHILD)
    setup, ref = [], []
    for _ in range(SETUP_SAMPLES):
        setup.append(timed(SETUP_CHILD))
        ref.append(timed(REFERENCE_CHILD))
    adjusted = statistics.median(SETUP_REF_S * s / r for s, r in zip(setup, ref))
    return adjusted, statistics.median(setup), statistics.median(ref)


def pin_to_current_cpu() -> None:
    """Keep this process and the ones it starts on the CPU it started on,
    so that the speed probes time the CPU the operations ran on."""
    with open("/proc/self/stat") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39, "processor"
    os.sched_setaffinity(0, {cpu})


def import_fairfeas():
    sys.path.insert(0, SRC)
    import fairfeas
    import fairfeas.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(fairfeas.__file__))) != SRC:
        raise ImportError(f"fairfeas imported from {fairfeas.__file__}, not from {SRC}")
    return fairfeas


def attempt(wl, op):
    """Execute op (timed), then collect and check its output (untimed).

    Garbage left by earlier operations is collected first, so that no
    operation pays for the one before it.
    """
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = wl.execute(op)
    except Exception:
        return time.perf_counter() - t0, None, [f"exception: {traceback.format_exc(limit=3)}"]
    elapsed = time.perf_counter() - t0
    try:
        out = wl.collect(op, out)
        problems = wl.check(op, out)
    except Exception:
        problems = [f"check raised: {traceback.format_exc(limit=3)}"]
    return elapsed, out, problems


def traced_attempt(wl, op, tracer, ff):
    tracer.install(ff)
    tracer.begin_op(op.index)
    root = tracer.open("op")
    try:
        return attempt(wl, op)
    finally:
        tracer.close(root)
        tracer.uninstall()


def run_loop(wl, seconds: float, adjust=None, tracer=None, ff=None) -> dict:
    """Closed loop: prepare, execute, check; one operation at a time.

    Untraced, each wall time is also speed-adjusted by `adjust`. Traced,
    each operation runs twice on the same input, traced first on even and
    untraced first on odd operations, so that an order effect (a warmer
    cache, say) cancels out of the overhead instead of showing in it.
    """
    res = {"times": [], "adjusted": [], "untraced": [], "failures": [], "first": None}
    busy = 0.0
    wall0 = time.perf_counter()
    i = 0
    while i < wl.max_ops and busy < seconds and time.perf_counter() - wall0 < 4 * seconds:
        op = wl.prepare(i)
        if tracer is None:
            elapsed, out, problems = attempt(wl, op)
            res["adjusted"].append(adjust(elapsed))
        else:
            if i % 2:
                again, plain, _ = attempt(wl, op)
                elapsed, out, problems = traced_attempt(wl, op, tracer, ff)
            else:
                elapsed, out, problems = traced_attempt(wl, op, tracer, ff)
                again, plain, _ = attempt(wl, op)
            res["untraced"].append(again)
            busy += again
            if out is None or plain is None or out.digest() != plain.digest():
                problems.append("traced and untraced outputs differ")
        res["times"].append(elapsed)
        busy += elapsed
        if problems:
            res["failures"].append(f"op {i}: " + "; ".join(problems))
        elif res["first"] is None:
            res["first"] = (op, out)
        wl.cleanup(op)
        i += 1
    return res


def corrupted_output_rejected(wl, first) -> bool:
    """The checks must flag a deliberately corrupted copy of a good output."""
    if first is None:
        return True  # no good output to corrupt; the run already failed
    op, out = first
    try:
        return bool(wl.check(op, out.corrupted()))
    except Exception:
        return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.pop("FAIRFEAS_THREADS", None)
    pin_to_current_cpu()
    if not os.path.isfile(os.path.join(SRC, "fairfeas", "__init__.py")):
        return fail(f"no fairfeas sources under {SRC}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)

    setup = None if args.trace else measure_setup()
    ff = import_fairfeas()
    tracer = None
    if args.trace:
        from tracing import LAYERS, Tracer

        tracer = Tracer()
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    adjust = None
    try:
        wl = WORKLOADS[args.workload](ff, args.seed, workdir, expected)
        wl.warm_up()
        adjust = None if args.trace else SpeedAdjuster()
        res = run_loop(wl, args.seconds, adjust, tracer, ff)
        if not corrupted_output_rejected(wl, res["first"]):
            res["failures"].append("self-check: a corrupted output was not rejected")
    finally:
        if adjust is not None:
            adjust.close()
        shutil.rmtree(workdir, ignore_errors=True)

    times = res["times"]
    n = len(times)
    failed = sum(1 for f in res["failures"] if f.startswith("op "))
    if args.trace:
        still_wrapped = tracer.restored(ff)
        if still_wrapped:
            res["failures"].append(f"self-check: not restored after tracing: {still_wrapped}")
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
        metrics = tracer.per_layer(n)
        diffs = [t - u for t, u in zip(times, res["untraced"])]
        metrics.update(
            {
                "trace.op_s": statistics.fmean(times),
                "trace.untraced_op_s": statistics.fmean(res["untraced"]),
                "trace.overhead_s": statistics.fmean(diffs),
                "trace.overhead_se_s": statistics.stdev(diffs) / n**0.5 if n > 1 else 0.0,
                "trace.layer_self_sum_s": sum(metrics[f"{layer}.self_s"] for layer in LAYERS),
            }
        )
        units = {k: "s" if k.endswith("_s") else "count" for k in metrics}
        units["region.prefix_bytes"] = "bytes"
    else:
        adjusted = res["adjusted"]
        metrics = {
            "setup_s": setup[0],
            "cmd_s_p50": statistics.median(adjusted),
            "ops_per_s": n / sum(adjusted),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1 - failed / n,
        }
        print(f"raw wall times: setup_s {setup[1]:.6f}, reference_import_s {setup[2]:.6f}, "
              f"cmd_s_p50 {statistics.median(times):.6f}, ops_per_s {n / sum(times):.6f}, "
              f"probe_s {statistics.median(adjust.probes):.6f}")
        units = {"setup_s": "s", "cmd_s_p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
    for f in res["failures"]:
        print(f, file=sys.stderr)
    print(f"{args.workload}: {n} operations, {sum(times):.3f} s of operation time; "
          f"seconds per operation: {' '.join(f'{t:.3f}' for t in times)}")
    print(json.dumps({
        "correct": not res["failures"],
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
