"""Tracing from outside the program: spans around calls into its modules.

A traced pass replaces each public function at every module binding its
calls go through with a wrapper that records a span (name, start, end,
parent, run id), and restores the bindings afterwards. Spans stay in memory
and are written out when the run ends; per-layer times and counts are
derived from them. Nothing inside ``src/`` is touched.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass(slots=True)
class Span:
    name: str  # <defining module>.<function>, e.g. graphgen.generate
    site: str  # module whose binding the call went through
    run: int  # pass number; spans of one pass share it
    parent: int | None  # index of the enclosing span
    start: float
    end: float = 0.0
    attrs: dict | None = None


def _generate_attrs(dense_max_nodes):
    def attrs(args, kwargs, graph):
        n = args[0].params.n_total
        method = kwargs.get("method", "auto")
        dense = method == "dense" or (method == "auto" and n <= dense_max_nodes)
        return {"edges": graph.edge_count, "pairs": n * (n - 1) // 2,
                "path": "dense" if dense else "skip"}
    return attrs


def _written_bytes(out_index):
    # the CLI opens each output file fresh, so its position is the bytes written
    return lambda args, kwargs, result: {"bytes": args[out_index].tell()}


def _read_bytes(args, kwargs, result):
    return {"bytes": os.fstat(args[0].fileno()).st_size}


def bindings(lab):
    """(module, attribute, attrs) for every binding a workload's calls go
    through. graphgen's own bindings carry the benchmark's direct calls."""
    generate_attrs = _generate_attrs(lab.graphgen.DENSE_MAX_NODES)
    table = {
        lab.graphgen: {"generate": generate_attrs, "empirical_group_degrees": None,
                       "node_degrees": None, "pair_class_counts": None,
                       "read_edge_list": _read_bytes},
        lab.montecarlo: {"generate": generate_attrs, "empirical_group_degrees": None,
                         "mix_seed": None, "mc_degree_summary": None, "mc_gap": None},
        lab.sweep: {"mix_seed": None, "mc_degree_summary": None, "mc_gap_slope": None,
                    "detect_critical_size": None, "sweep": None, "expected_stats": None},
        lab.cli: {"generate": generate_attrs, "empirical_group_degrees": None,
                  "write_edge_list": _written_bytes(0), "fig1_dataset": None, "sweep": None,
                  "write_table": _written_bytes(1), "main": None},
    }
    return [(module, attr, attrs) for module, entries in table.items()
            for attr, attrs in entries.items()]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, binding_list) -> None:
        for module, attr, attrs in binding_list:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            site = module.__name__.rpartition(".")[2]
            name = f"{original.__module__.rpartition('.')[2]}.{original.__name__}"
            setattr(module, attr, self._wrap(original, name, site, attrs))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, site, attrs):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, site, self.run_id, stack[-1] if stack else None, 0.0)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def layer_metrics(spans: list[Span], run_id: int, wall: float) -> dict[str, float]:
    """Per-layer counts and times of one traced pass. ``.s`` is time inside
    a call, ``.self_s`` that time minus its child spans."""
    ids = [i for i, span in enumerate(spans) if span.run == run_id]
    child_time: dict[int, float] = defaultdict(float)
    for i in ids:
        span = spans[i]
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for i in ids:
        span = spans[i]
        calls[span.name] += 1
        total[span.name] += span.end - span.start
        own[span.name] += span.end - span.start - child_time[i]

    # a call that raised has no attrs; it still counts in calls and times
    generate = [spans[i] for i in ids
                if spans[i].name == "graphgen.generate" and spans[i].attrs is not None]
    durations_ms = [(s.end - s.start) * 1e3 for s in generate] or [0.0]
    if len(durations_ms) == 1:
        durations_ms *= 2
    percentiles = statistics.quantiles(durations_ms, n=100, method="inclusive")
    pairs = sum(s.attrs["pairs"] for s in generate)

    def attr_sum(name, key):
        return float(sum(spans[i].attrs[key] for i in ids
                         if spans[i].name == name and spans[i].attrs is not None))

    def path_spans(path):
        return [s for s in generate if s.attrs["path"] == path]

    degrees = ("graphgen.empirical_group_degrees", "graphgen.node_degrees",
               "graphgen.pair_class_counts")
    detect_ids = {i for i in ids if spans[i].name == "sweep.detect_critical_size"}
    m = {
        "graphgen.generate.calls": calls["graphgen.generate"],
        "graphgen.generate.s": total["graphgen.generate"],
        "graphgen.generate.share": total["graphgen.generate"] / wall,
        "graphgen.generate.edges": attr_sum("graphgen.generate", "edges"),
        "graphgen.generate.pairs_computed": float(pairs),
        "graphgen.generate.ns_per_pair": 1e9 * total["graphgen.generate"] / pairs if pairs else 0.0,
        "graphgen.generate.p50_ms": percentiles[49],
        "graphgen.generate.p99_ms": percentiles[98],
    }
    for path in ("dense", "skip"):
        chosen = path_spans(path)
        m[f"graphgen.generate.{path}.calls"] = len(chosen)
        m[f"graphgen.generate.{path}.s"] = sum(s.end - s.start for s in chosen)
    m["graphgen.degrees.calls"] = sum(calls[name] for name in degrees)
    # empirical_group_degrees calls node_degrees: count each interval once
    m["graphgen.degrees.s"] = sum(
        spans[i].end - spans[i].start for i in ids if spans[i].name in degrees
        and (spans[i].parent is None or spans[spans[i].parent].name not in degrees)
    )
    for name in ("write_edge_list", "read_edge_list"):
        m[f"graphgen.{name}.calls"] = calls[f"graphgen.{name}"]
        m[f"graphgen.{name}.s"] = total[f"graphgen.{name}"]
        m[f"graphgen.{name}.bytes"] = attr_sum(f"graphgen.{name}", "bytes")
    m["montecarlo.mix_seed.calls"] = calls["montecarlo.mix_seed"]
    m["montecarlo.mix_seed.s"] = total["montecarlo.mix_seed"]
    for name in ("mc_degree_summary", "mc_gap_slope"):
        m[f"montecarlo.{name}.calls"] = calls[f"montecarlo.{name}"]
        m[f"montecarlo.{name}.self_s"] = own[f"montecarlo.{name}"]
    m["montecarlo.replicates"] = sum(1 for s in generate if s.site == "montecarlo")
    for name in ("sweep", "fig1_dataset"):
        m[f"sweep.{name}.calls"] = calls[f"sweep.{name}"]
        m[f"sweep.{name}.self_s"] = own[f"sweep.{name}"]
    m["sweep.detect_critical_size.calls"] = calls["sweep.detect_critical_size"]
    m["sweep.detect_critical_size.steps"] = sum(
        1 for i in ids if spans[i].name == "montecarlo.mc_gap_slope" and spans[i].parent in detect_ids
    )
    m["sweep.detect_critical_size.self_s"] = own["sweep.detect_critical_size"]
    m["sweep.write_table.calls"] = calls["sweep.write_table"]
    m["sweep.write_table.s"] = total["sweep.write_table"]
    m["sweep.write_table.bytes"] = attr_sum("sweep.write_table", "bytes")
    m["model.expected_stats.calls"] = calls["model.expected_stats"]
    m["model.expected_stats.s"] = total["model.expected_stats"]
    m["cli.main.calls"] = calls["cli.main"]
    m["cli.main.self_s"] = own["cli.main"]
    m["trace.spans"] = len(ids)
    m["trace.wall_s"] = wall
    return m
