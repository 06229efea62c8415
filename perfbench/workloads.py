"""The four benchmark workloads: seeded inputs, one operation, its checks.

Every workload is a closed loop driven by run.py: `prepare(i)` writes the
inputs of operation i (untimed), `execute(op)` runs it (timed) and
`check(op, out)` compares the output with the values recorded from the
seed commit in expected.json (untimed). The program receives only the
generated inputs; the seed never reaches it.

Inputs are distinct within a run. Where two operations still share work
(one n for every region query, one supply profile for every analyze
operation, one band width for every planimeter operation), the work is
really the same, so a cache across calls may legitimately help there.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


@dataclass
class Op:
    """One operation: its inputs, its scratch directory and what it writes."""

    index: int
    params: dict
    workdir: str
    files: tuple[str, ...] = ()


@dataclass
class Output:
    """What an operation produced: exit code, stdout and written files."""

    code: int
    text: str
    files: dict[str, bytes] = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.code}\n{self.text}".encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name])
        return h.hexdigest()

    def corrupted(self) -> "Output":
        """A copy with one changed byte per file and a changed stdout."""
        files = {n: b[:-1] + bytes([b[-1] ^ 1]) for n, b in self.files.items() if b}
        return Output(self.code, self.text.rstrip("\n") + "1\n", files)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(ff, argv: list[str]) -> Output:
    """`fairfeas <argv>` in-process, with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ff.cli.main(argv)
    return Output(code, out.getvalue() + err.getvalue())


class Workload:
    name = ""
    #: Distinct inputs available in one run; the loop stops when they run out.
    max_ops = 10**6

    def __init__(self, ff, seed: int, workdir: str, expected: dict):
        self.ff = ff
        self.seed = seed
        self.workdir = workdir
        self.expected = expected.get(self.name, {})

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed % 2**64, i])

    def op_dir(self, i: int) -> str:
        d = os.path.join(self.workdir, f"op{i}")
        os.makedirs(d, exist_ok=True)
        return d

    def warm_up(self) -> None:
        """Run a small operation once, so lazy imports are not timed."""

    def prepare(self, i: int) -> Op:
        raise NotImplementedError

    def execute(self, op: Op) -> Output:
        raise NotImplementedError

    def check(self, op: Op, out: Output) -> list[str]:
        raise NotImplementedError

    def collect(self, op: Op, out: Output) -> Output:
        for name in op.files:
            with open(os.path.join(op.workdir, name), "rb") as fh:
                out.files[name] = fh.read()
        return out

    def cleanup(self, op: Op) -> None:
        shutil.rmtree(op.workdir, ignore_errors=True)


# --- region-sweep -----------------------------------------------------------
# Why: it is all `region`, and every operation shares one n, so the
# eps-independent triples and tables could be reused across calls.

REGION_N = 100
REGION_EPS_IDX = range(0, 21)  # eps = 0.00 .. 0.20
PPV_BINS = ((0, 24), (25, 49), (50, 74), (75, 99))  # region.DEFAULT_PPV_BINS


def bin_key(window) -> str:
    return "all" if window is None else f"{window[0]}-{window[1]}"


def region_op_sequence(seed: int) -> list[tuple[int, object]]:
    """(eps index, PPV window) per operation, all distinct.

    The kinds repeat in a fixed pattern (two full heatmaps, then one PPV
    bin), so every run has the same mix; only the eps values come from
    the seed. The sequence ends when the full-heatmap eps values run out.
    """
    rng = np.random.default_rng([seed % 2**64])
    full = [int(e) for e in rng.permutation(list(REGION_EPS_IDX))]
    per_bin = [[int(e) for e in rng.permutation(list(REGION_EPS_IDX))] for _ in PPV_BINS]
    seq, j = [], 0
    while full:
        if j % 3 == 2:
            b = (j // 3) % len(PPV_BINS)
            seq.append((per_bin[b].pop(), PPV_BINS[b]))
        else:
            seq.append((full.pop(), None))
        j += 1
    return seq


def parse_heatmap_csv(data: bytes) -> tuple[list[int], np.ndarray]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    p_idx = [int(x) for x in rows[0][1:]]
    counts = np.array([[int(x) for x in r[1:]] for r in rows[1:]], dtype=np.int64)
    return p_idx, counts


class RegionSweep(Workload):
    """`heatmap` at n=100 over eps, and `ppv_binned_counts` per PPV bin."""

    name = "region-sweep"

    def __init__(self, ff, seed, workdir, expected):
        super().__init__(ff, seed, workdir, expected)
        self.sequence = region_op_sequence(seed)
        self.max_ops = len(self.sequence)

    def run_query(self, disc, eps_idx: int, window, out_dir: str) -> Output:
        region = self.ff.region
        if window is None:
            hm = region.heatmap(disc, eps_max=eps_idx / 100)
            region.heatmap_to_csv(hm, os.path.join(out_dir, "heatmap.csv"))
            return Output(0, f"{hm.total}\n")
        totals = region.ppv_binned_counts(disc, eps_max=eps_idx / 100, bins=[window])
        return Output(0, f"{totals[0]}\n")

    def warm_up(self) -> None:
        disc = self.ff.region.Discretization(n=20)
        d = self.op_dir(-1)
        self.run_query(disc, 1, None, d)
        self.run_query(disc, 1, (0, 9), d)
        shutil.rmtree(d)

    def prepare(self, i: int) -> Op:
        eps_idx, window = self.sequence[i]
        files = ("heatmap.csv",) if window is None else ()
        return Op(i, {"eps_idx": eps_idx, "window": window}, self.op_dir(i), files)

    def execute(self, op: Op) -> Output:
        disc = self.ff.region.Discretization(n=REGION_N)
        return self.run_query(disc, op.params["eps_idx"], op.params["window"], op.workdir)

    def check(self, op: Op, out: Output) -> list[str]:
        eps_idx, window = op.params["eps_idx"], op.params["window"]
        series = self.expected["totals"][bin_key(window)]
        total = int(out.text)
        problems = []
        if total != series[eps_idx]:
            problems.append(f"eps_idx={eps_idx} {bin_key(window)}: total {total} != {series[eps_idx]}")
        below, above = series[eps_idx - 1 : eps_idx], series[eps_idx + 1 : eps_idx + 2]
        if any(total <= t for t in below) or any(total >= t for t in above):
            problems.append("totals do not grow strictly with eps")
        if window is None:
            data = out.files["heatmap.csv"]
            if sha256(data) != self.expected["csv_sha256"][eps_idx]:
                problems.append(f"eps_idx={eps_idx}: heatmap.csv differs from the recorded one")
            p_idx, counts = parse_heatmap_csv(data)
            off_diag = counts - np.diag(np.diag(counts))
            if p_idx != list(range(1, REGION_N)):
                problems.append("prevalence grid is not 1..99")
            if not np.array_equal(counts, counts.T):
                problems.append("heatmap matrix is not symmetric")
            if int(counts.sum()) != total:
                problems.append("matrix sum differs from the printed total")
            if (off_diag.sum() == 0) != (eps_idx == 0):
                problems.append("off-diagonal mass must vanish exactly at eps=0")
        return problems


# --- analyze (shared by analyze-4g and analyze-sampled) ----------------------

SCHEMA = {"label": "y", "positive": "1", "sensitive": ["a", "b"], "id": "id"}
CAP = Fraction("0.7")


def write_cohort_csv(path: str, rng: np.random.Generator, a, b, y) -> None:
    """Rows in seeded order; ids number the rows as written."""
    order = rng.permutation(len(a))
    a, b, y = a[order], b[order], y[order]
    lines = [f"{i},a{ai},b{bi},{yi}" for i, (ai, bi, yi) in enumerate(zip(a.tolist(), b.tolist(), y.tolist()))]
    with open(path, "w", newline="") as fh:
        fh.write("id,a,b,y\n")
        fh.write("\n".join(lines))
        fh.write("\n")


def check_k_scan(report: dict, groups: dict, recorded: dict) -> list[str]:
    """Exact-arithmetic invariants of every k-scan row, then the recorded rows."""
    problems = []
    total_p = sum(p for _, p in groups.values())
    total_n = sum(n - p for n, p in groups.values())
    n = sum(size for size, _ in groups.values())
    rows = report["k_scan"]["rows"]
    for r in rows:
        k = max(1, math.floor(Fraction(r["k_pct"] * n, 100) + Fraction(1, 2)))
        best = min(total_p, math.floor(CAP * k))
        ideal = None if k - best > total_n else best
        got = r["constrained_tp"]
        if r["k_abs"] != k:
            problems.append(f"k={r['k_pct']}%: k_abs {r['k_abs']} != {k}")
        if r["unconstrained_tp"] != ideal:
            problems.append(f"k={k}: unconstrained_tp {r['unconstrained_tp']} != {ideal}")
        if got is not None and (ideal is None or got > ideal):
            problems.append(f"k={k}: constrained_tp {got} exceeds {ideal}")
        if r["optimal"] != (got is not None and got == ideal):
            problems.append(f"k={k}: wrong optimal flag")
    if rows != recorded["rows"] or report["k_scan"]["summary"] != recorded["summary"]:
        problems.append("k-scan rows differ from the recorded seed output")
    return problems


class Analyze(Workload):
    """`fairfeas analyze` on a generated CSV with fixed group counts.

    GROUPS maps (a, b) value indices to (rows, positives); the seed
    chooses which rows are positive, the row order and, with B_RANDOM,
    the `b` value of each row.
    """

    GROUPS: dict = {}
    WARM_GROUPS: dict = {}
    B_RANDOM = False
    ARGS: list = []

    def __init__(self, ff, seed, workdir, expected):
        super().__init__(ff, seed, workdir, expected)
        with open(os.path.join(self.workdir, "schema.json"), "w") as fh:
            json.dump(SCHEMA, fh)

    def generate(self, path: str, rng: np.random.Generator, groups: dict) -> None:
        a, b, y = [], [], []
        for (ai, bi), (size, pos) in groups.items():
            a.append(np.full(size, ai))
            b.append(np.full(size, bi))
            y.append(np.repeat([1, 0], [pos, size - pos]))
        a, b, y = np.concatenate(a), np.concatenate(b), np.concatenate(y)
        if self.B_RANDOM:
            b = rng.integers(0, 2, len(a))
        write_cohort_csv(path, rng, a, b, y)

    def argv(self, op_dir: str, sample_seed: int) -> list[str]:
        return [
            "analyze",
            "--csv", os.path.join(op_dir, "cohort.csv"),
            "--schema", os.path.join(self.workdir, "schema.json"),
            *self.ARGS,
            "--seed", str(sample_seed),
            "--out", os.path.join(op_dir, "report.json"),
        ]

    def warm_up(self) -> None:
        d = self.op_dir(-1)
        self.generate(os.path.join(d, "cohort.csv"), np.random.default_rng(0), self.WARM_GROUPS)
        argv = self.argv(d, 0)
        if "--sample-n" in argv:
            argv[argv.index("--sample-n") + 1] = "80"
        argv += ["--k-grid", "10,20"]
        run_cli(self.ff, argv)
        shutil.rmtree(d)

    def prepare(self, i: int) -> Op:
        d = self.op_dir(i)
        rng = self.rng(i)
        self.generate(os.path.join(d, "cohort.csv"), rng, self.GROUPS)
        return Op(i, {"argv": self.argv(d, int(rng.integers(2**31)))}, d, ("report.json",))

    def execute(self, op: Op) -> Output:
        return run_cli(self.ff, op.params["argv"])

    def expected_groups(self) -> dict:
        """Group key -> (rows, positives) that the report must show."""
        raise NotImplementedError

    def check(self, op: Op, out: Output) -> list[str]:
        if out.code != 0:
            return [f"exit code {out.code}: {out.text.strip()[-200:]}"]
        if out.files["report.json"].decode() + "\n" != out.text:
            return ["--out report differs from stdout"]
        report = json.loads(out.text)
        groups = self.expected_groups()
        got = {g["key"]: (g["n"], g["positives"]) for g in report["groups"]}
        if got != groups:
            return [f"group counts {got} != {groups}"]
        return check_k_scan(report, groups, self.expected)


# Why analyze-4g: almost all of it is `selection`'s depth-first descent;
# `data` does negligible work. Every k point binds (fairness costs true
# positives), which is where the search explodes. The grid stops at 15%
# so that one operation takes well under a second and a run holds enough
# operations for a steady median (20% alone takes 1.4 s, 30% 5 s).
class Analyze4G(Analyze):
    name = "analyze-4g"
    GROUPS = {(0, 0): (100, 50), (0, 1): (100, 40), (1, 0): (100, 30), (1, 1): (100, 20)}
    WARM_GROUPS = {(0, 0): (10, 5), (0, 1): (10, 4), (1, 0): (10, 3), (1, 1): (10, 2)}
    ARGS = ["--grouping", "a,b", "--k-grid", "5,10,15"]

    def expected_groups(self) -> dict:
        return {f"a{a}|b{b}": v for (a, b), v in self.GROUPS.items()}


# Why analyze-sampled: the same two layers the other way round. `data`
# loads 200k rows and draws a stratified sample; `selection` solves a
# 2-group problem dominated by its reference loop over the 20-point grid.
class AnalyzeSampled(Analyze):
    name = "analyze-sampled"
    GROUPS = {(0, 0): (120_000, 48_000), (1, 0): (80_000, 24_000)}
    WARM_GROUPS = {(0, 0): (1_200, 480), (1, 0): (800, 240)}
    B_RANDOM = True
    ARGS = ["--grouping", "a", "--intersect", "a,b", "--sample-n", "800"]

    def expected_groups(self) -> dict:
        # largest-remainder quotas of 800 are exact for these counts
        return {"a0": (480, 192), "a1": (320, 96)}

    def check(self, op: Op, out: Output) -> list[str]:
        problems = super().check(op, out)
        if not problems:
            inter = json.loads(out.text)["intersection"]
            if inter["columns"] != ["a", "b"] or inter["passed"] is not True:
                problems.append(f"intersection check did not pass: {inter}")
        return problems


# --- planimeter-band ---------------------------------------------------------
# Why: it is all `planimeter` (detector marking for 239 curves at g=120) and
# it bypasses `region`, `selection` and `data`.

PLANIMETER_G = 120
C_MAX = 0.5
EPS_NUM = range(205, 1844)  # |eps_p| = m / 4096, 0.05 .. 0.45


def band_pair(rng: np.random.Generator) -> tuple[float, float]:
    """A (gamma, eps_p) pair with 2*gamma/|eps_p| == C_MAX exactly in floats."""
    m = int(rng.integers(EPS_NUM.start, EPS_NUM.stop))
    eps_p = m / 4096 * (1 if rng.integers(2) else -1)
    return C_MAX * abs(eps_p) / 2, eps_p


class PlanimeterBand(Workload):
    """`fairfeas planimeter --family acc-band` at g=120."""

    name = "planimeter-band"

    def __init__(self, ff, seed, workdir, expected):
        super().__init__(ff, seed, workdir, expected)
        self.used: set[tuple[float, float]] = set()

    @staticmethod
    def argv(g: int, gamma: float, eps_p: float, out_dir: str) -> list[str]:
        return [
            "planimeter", "--family", "acc-band", "--g", str(g),
            "--gamma", repr(gamma), "--eps-p", repr(eps_p), "--out-dir", out_dir,
        ]

    def warm_up(self) -> None:
        d = self.op_dir(-1)
        run_cli(self.ff, self.argv(20, 0.05, 0.2, d))
        shutil.rmtree(d)

    def prepare(self, i: int) -> Op:
        rng = self.rng(i)
        pair = band_pair(rng)
        while pair in self.used:
            pair = band_pair(rng)
        self.used.add(pair)
        d = self.op_dir(i)
        return Op(i, {"argv": self.argv(PLANIMETER_G, *pair, d)}, d, ("planimeter.json", "mask.pgm"))

    def execute(self, op: Op) -> Output:
        return run_cli(self.ff, op.params["argv"])

    def check(self, op: Op, out: Output) -> list[str]:
        if out.code != 0:
            return [f"exit code {out.code}: {out.text.strip()[-200:]}"]
        problems = []
        est = json.loads(out.files["planimeter.json"])
        fraction = float(out.text)
        g = PLANIMETER_G
        if est["g"] != g or est["fraction"] != fraction:
            problems.append(f"planimeter.json {est} disagrees with stdout {fraction}")
        if abs(fraction - (2 * C_MAX - C_MAX**2)) > 2.0 / g:
            problems.append(f"fraction {fraction} not within 2/g of {2 * C_MAX - C_MAX**2}")
        if est["satisfied"] != self.expected["satisfied"]:
            problems.append(f"satisfied {est['satisfied']} != {self.expected['satisfied']}")
        if sha256(out.files["mask.pgm"]) != self.expected["mask_sha256"]:
            problems.append("mask.pgm differs from the recorded mask")
        return problems


WORKLOADS = {w.name: w for w in (RegionSweep, Analyze4G, AnalyzeSampled, PlanimeterBand)}
