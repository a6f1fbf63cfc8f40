"""Spans and counters recorded from the benchmark's side of each library call.

The benchmark never patches `spn`: every call it makes into a module's
public function goes through `Tracer.call(name, fn, *args)`, where `name`
is `module.function`.  `NullTracer` has the same interface and only calls
through, so span bookkeeping stays out of the untraced passes.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class NullTracer:
    traced = False
    op = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, name, fn):
        return fn

    def count(self, name, k=1):
        pass


class Tracer:
    """Keeps spans in memory: (name, start_ns, end_ns, parent index, op id)."""

    traced = True

    def __init__(self):
        self.op = None
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def wrap(self, name, fn):
        """A callable that records one span per call of `fn`."""

        def traced(*args):
            return self.call(name, fn, *args)

        return traced

    def count(self, name, k=1):
        self.counts[name] += k

    def self_times(self) -> tuple[dict[str, int], dict[str, int], int]:
        """Per span name: total self time (ns) and call count; plus top-level time."""
        child_ns = [0] * len(self.spans)
        top_ns = 0
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
            else:
                top_ns += end - start
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_ns[name] += end - start - child_ns[i]
            calls[name] += 1
        return self_ns, calls, top_ns

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


# Span name -> per-layer time metric (self time, seconds per pass).
SPAN_METRIC = {
    "circuit.serialize": "circuit.serialize_s",
    "circuit.deserialize": "circuit.deserialize_s",
    "structure.check_decomposable": "structure.dc_check_s",
    "structure.check_complete": "structure.dc_check_s",
    "structure.is_dc": "structure.dc_check_s",
    "structure.brute_force_validity": "structure.oracle_s",
    "polynomial.expand": "polynomial.expand_s",
    "polynomial.is_set_multilinear": "polynomial.expand_s",
    "inference.partition_function": "inference.partition_s",
    "inference.marginalize": "inference.marginal_s",
    "inference.normalize_weights": "inference.normalize_s",
    "inference.sample": "inference.sample_s",
    "machines.compile_fpssm": "machines.compile_s",
    "machines.build_equal": "machines.compile_s",
    "separation.comm_matrix": "separation.comm_matrix_s",
    "separation.decompose": "separation.decompose_s",
    "separation.perturbation_rank_bound": "separation.perturbation_s",
    "linalg.exact_rank": "linalg.exact_rank_s",
    "sptree.count_consistent_trees": "sptree.count_s",
    "sptree.sample_tree": "sptree.sample_s",
    "sptree.constraint_fraction_experiment": "sptree.experiment_s",
    "sptree.count_dichromatic_triangles": "sptree.triangles_s",
}

# Span name -> per-layer call-count metric.
SPAN_CALLS = {
    "circuit.evaluate": "circuit.evaluate_calls",
    "structure.brute_force_validity": "structure.oracle_calls",
    "inference.marginalize": "inference.marginal_calls",
    "linalg.exact_rank": "linalg.rank_calls",
    "sptree.count_consistent_trees": "sptree.count_calls",
}


def layer_metrics(tracer: Tracer, run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (failures are added by the caller)."""
    self_ns, calls, top_ns = tracer.self_times()
    out: dict[str, float] = {m: 0.0 for m in set(SPAN_METRIC.values())}
    for name, ns in self_ns.items():
        if name in SPAN_METRIC:
            out[SPAN_METRIC[name]] += ns / 1e9
    for name, metric in SPAN_CALLS.items():
        out[metric] = calls.get(name, 0)
    eval_calls = calls.get("circuit.evaluate", 0)
    out["circuit.evaluate_us"] = self_ns.get("circuit.evaluate", 0) / 1e3 / eval_calls if eval_calls else 0.0
    counts = tracer.counts
    out["circuit.json_mb"] = counts["circuit.json_bytes"] / 1e6
    out["polynomial.terms"] = counts["polynomial.terms"]
    out["machines.nodes"] = counts["machines.nodes"]
    out["separation.terms"] = counts["separation.terms"]
    sample_s = out["inference.sample_s"]
    out["inference.draws_per_s"] = counts["inference.draws"] / sample_s if sample_s else 0.0
    tree_s = out["sptree.sample_s"]
    out["sptree.trees_per_s"] = counts["sptree.trees"] / tree_s if tree_s else 0.0
    out["bench.other_s"] = run_s - top_ns / 1e9
    return out

