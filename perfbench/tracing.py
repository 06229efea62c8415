"""Spans around the public functions of fairfeas's layer modules.

`Tracer.install` replaces every public module-level function of the six
layer modules (plus `FeasibleTripleSet.prefix_table` and the evaluator of
each family `line_family` returns) by a wrapper that records a span:
name, start, end and parent, tagged with the operation it belongs to.
Spans stay in memory; `write` saves them when the run ends. `uninstall`
puts every original back. Nothing inside src/ changes.

`metrics`, `relations` and `errors` are not wrapped: they are closed
forms that take microseconds and sit on no workload's hot path.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "region", "selection", "data", "planimeter", "pgm")

_WRAPPED = "__perfbench_original__"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [op, name, start, end, parent index]
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] += value

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, kwargs, result) may replace the result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            return result if after is None else after(args, kwargs, result)

        setattr(wrapper, _WRAPPED, fn)
        return wrapper

    # -- installing ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, ff) -> None:
        self._restore = []
        hooks = self._hooks(ff)
        for layer in LAYERS:
            mod = getattr(ff, layer)
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue  # imported from an unmeasured module
                name = f"{layer}.{attr}"
                self._patch(mod, attr, self.span(name, fn, hooks.get(name)))
        cls = ff.region.FeasibleTripleSet
        if "prefix_table" in vars(cls):
            self._patch(cls, "prefix_table", self._prefix_table(cls.prefix_table))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)

    def restored(self, ff) -> list[str]:
        """Names still wrapped, or not the original object, after uninstall."""
        bad = [
            f"{getattr(o, '__name__', o)}.{a}"
            for o, a, original in self._restore
            if o.__dict__[a] is not original
        ]
        for layer in LAYERS:
            mod = getattr(ff, layer)
            owners = [mod] + [c for c in vars(mod).values() if inspect.isclass(c)]
            for owner in owners:
                for attr, value in vars(owner).items():
                    if hasattr(value, _WRAPPED):
                        bad.append(f"{mod.__name__}.{attr}")
        return bad

    def _prefix_table(self, original):
        tracer = self

        @functools.wraps(original)
        def prefix_table(table_set):
            building = getattr(table_set, "_prefix", None) is None
            idx = tracer.open("region.prefix_table")
            try:
                return original(table_set)
            finally:
                tracer.close(idx)
                if building:
                    tracer.count("region.prefix_tables_built")
                    tracer.count("region.prefix_bytes", (table_set.disc.n + 2) ** 3 * 8)

        setattr(prefix_table, _WRAPPED, original)
        return prefix_table

    def _hooks(self, ff) -> dict:
        """Counters taken from arguments or results at a layer boundary."""
        count_joint_sig = inspect.signature(ff.region.count_joint)

        def triples(args, kwargs, result):
            self.count("region.triples", len(result))
            return result

        def box_queries(args, kwargs, result):
            sets = count_joint_sig.bind(*args, **kwargs).arguments["sets"]
            self.count("region.box_queries", len(sets[0]))
            return result

        def binding(args, kwargs, result):
            self.count(
                "selection.binding_k",
                sum(
                    r.constrained_tp is None or r.constrained_tp < r.unconstrained_tp
                    for r in result.rows
                ),
            )
            return result

        def rows(args, kwargs, result):
            self.count("data.rows_loaded", len(result))
            return result

        def detectors(args, kwargs, result):
            self.count("planimeter.detectors", result[0].satisfied)
            return result

        def traced_family(args, kwargs, fam):
            evaluate = fam.evaluator

            def evaluator(x, theta):
                self.count("planimeter.curves")
                self.count("planimeter.curve_points", len(x))
                idx = self.open("planimeter.curve_eval")
                try:
                    return evaluate(x, theta)
                finally:
                    self.close(idx)

            return type(fam)(evaluator=evaluator, thetas=fam.thetas)

        return {
            "region.enumerate_triples": triples,
            "region.count_joint": box_queries,
            "selection.k_scan": binding,
            "data.load_csv": rows,
            "planimeter.estimate_area": detectors,
            "planimeter.line_family": traced_family,
        }

    # -- reporting ----------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["op", "name", "start", "end", "parent"], "spans": self.spans}, fh
            )

    def per_layer(self, n_ops: int) -> dict[str, float]:
        """Per-operation means of the layer metrics named in BENCHMARK.json."""
        child = [0.0] * len(self.spans)
        for op, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = Counter()
        slowest = defaultdict(float)  # op -> longest solve_exact
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, (op, name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            total[name] += dur
            self_time[name] += dur - child[i]
            calls[name] += 1
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += dur - child[i]
            if name == "selection.solve_exact":
                slowest[op] = max(slowest[op], dur)
        c = self.counts
        m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        m.update(
            {
                "region.prefix_table_s": total["region.prefix_table"],
                "region.prefix_tables_built": c["region.prefix_tables_built"],
                "region.prefix_bytes": c["region.prefix_bytes"],
                "region.count_joint_self_s": self_time["region.count_joint"],
                "region.count_joint_calls": calls["region.count_joint"],
                "region.box_queries": c["region.box_queries"],
                "region.enumerate_triples_s": total["region.enumerate_triples"],
                "region.enumerate_triples_calls": calls["region.enumerate_triples"],
                "region.triples": c["region.triples"],
                "region.heatmap_to_csv_s": total["region.heatmap_to_csv"],
                "selection.solve_exact_s": total["selection.solve_exact"],
                "selection.solve_exact_calls": calls["selection.solve_exact"],
                "selection.slowest_k_s": sum(slowest.values()),
                "selection.binding_k": c["selection.binding_k"],
                "selection.check_allocation_s": total["selection.check_allocation"],
                "selection.k_scan_self_s": self_time["selection.k_scan"],
                "data.load_csv_s": total["data.load_csv"],
                "data.rows_loaded": c["data.rows_loaded"],
                "data.stratified_sample_s": total["data.stratified_sample"],
                "data.group_stats_s": total["data.group_stats"],
                "data.intersection_bracketing_check_s": total["data.intersection_bracketing_check"],
                "planimeter.estimate_area_self_s": self_time["planimeter.estimate_area"],
                "planimeter.curve_eval_s": total["planimeter.curve_eval"],
                "planimeter.curves": c["planimeter.curves"],
                "planimeter.curve_points": c["planimeter.curve_points"],
                "planimeter.detectors": c["planimeter.detectors"],
                "pgm.write_pgm_s": total["pgm.write_pgm"],
                "trace.spans": len(self.spans),
            }
        )
        return {k: v / n_ops for k, v in m.items()}
