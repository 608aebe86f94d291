"""Span recorder for the traced run, wrapped around the package's boundaries.

While recording, each boundary function is replaced under every name a
caller looks it up by (``fas_engine.greedy_pack``, ``c4free_fas.first_count``
and so on), and each ``BipartiteDigraph`` method named below is replaced on
the class.  A span holds name, start, end, parent span and request id.
Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the durations of its child spans: one thread
runs everything, so children never overlap.

Per-pair helpers such as ``pair()`` and ``parse_vertex`` are left unwrapped;
their cost lands in the self time of the boundary that calls them.
``oracles`` is on no timed path and is not wrapped.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

# Module-level functions, as <module>.<function>.
FUNCTIONS = (
    "cli.run",
    "cli.parse_instance",
    "cli.parse_arc",
    "cli.render_instance",
    "fas_engine.solve",
    "fas_engine.backward_arcs",
    "cycle_packing.greedy_pack",
    "c4free_fas.fas_c4free",
    "c4free_fas.find_4cycle",
    "c4free_fas.trim_acyclic_vertices",
    "p4_census.first_count",
    "p4_census.sec_count",
    "p4_census.partition_around",
    "graph_core.build",
    "instance_gen.random_bt",
)
# Methods of graph_core.BipartiteDigraph, recorded as graph_core.<method>.
METHODS = (
    "topological_order",
    "delete_arcs",
    "is_feedback_arc_set",
    "swap_sides",
    "induced_subgraph",
    "reverse",
)
# Modules whose namespaces hold the callers' bindings.
MODULES = (
    "cli",
    "fas_engine",
    "cycle_packing",
    "c4free_fas",
    "p4_census",
    "graph_core",
    "instance_gen",
)


def _count_fas_c4free(rec: "SpanRecorder", args, out) -> None:
    trace = out.trace
    rec.counts["c4free_fas.trace_nodes"] += len(trace)
    rec.counts["c4free_fas.reversed_nodes"] += sum(t.mode == "reversed" for t in trace)
    rec.counts["c4free_fas.y_center_nodes"] += sum(t.center.side == "Y" for t in trace)
    if trace:
        rec.max_depth = max(rec.max_depth, max(t.depth for t in trace))


def _count_solve(rec: "SpanRecorder", args, out) -> None:
    if hasattr(out, "residual_part"):
        rec.counts["fas_engine.residual_part"] += len(out.residual_part)
        rec.counts["fas_engine.backward_part"] += len(out.backward_part)


# Counts read from a boundary's arguments and result.  None of them reads
# an argument iterator, which belongs to the wrapped function.
COUNTERS: dict[str, Callable[["SpanRecorder", tuple, object], None]] = {
    "cycle_packing.greedy_pack": lambda rec, args, out: rec.counts.update(
        {"cycle_packing.cycles": len(out.cycles)}
    ),
    "graph_core.topological_order": lambda rec, args, out: rec.counts.update(
        {"graph_core.topological_order.cyclic": int(out.order is None)}
    ),
    "graph_core.delete_arcs": lambda rec, args, out: rec.counts.update(
        {"graph_core.delete_arcs.arcs": out.absent_pair_count() - args[0].absent_pair_count()}
    ),
    "fas_engine.solve": _count_solve,
    "c4free_fas.fas_c4free": _count_fas_c4free,
}


class SpanRecorder:
    """Records spans of the boundary calls made inside :meth:`recording`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.request_ids: list[int] = []
        self.counts: Counter[str] = Counter()
        self.max_depth = 0
        self._stack: list[int] = []
        self._request = -1
        self._bindings = _bindings()
        self._wrappers = [self._wrap(name, original) for _, _, name, original in self._bindings]

    @contextmanager
    def recording(self, request_id: int) -> Iterator[None]:
        """Install the wrappers for one request and remove them afterwards."""
        self._request = request_id
        for (owner, attr, _, _), wrapper in zip(self._bindings, self._wrappers):
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, _, original in self._bindings:
                setattr(owner, attr, original)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.request_ids.append(self._request)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[index] = perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self, args, out)
            return out

        return wrapper

    def summary(self, requests_only: bool = False) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds.

        ``c4free_fas.find_4cycle`` is also split by caller into
        ``...@greedy_pack`` and ``...@fas_c4free`` entries.  With
        ``requests_only`` the spans of corpus generation (request id -1)
        are left out.
        """
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for i, name in enumerate(self.names):
            if requests_only and self.request_ids[i] < 0:
                continue
            duration = self.ends[i] - self.starts[i]
            keys = [name]
            if name == "c4free_fas.find_4cycle" and self.parents[i] >= 0:
                keys.append(f"{name}@{self.names[self.parents[i]].split('.')[-1]}")
            for key in keys:
                entry = out[key]
                entry["calls"] += 1
                entry["total"] += duration
                entry["self"] += duration - child[i]
        return dict(out)

    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines: name, start, end, parent, request."""
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for i, name in enumerate(self.names):
                record = [
                    name,
                    round(self.starts[i] - origin, 9),
                    round(self.ends[i] - origin, 9),
                    self.parents[i],
                    self.request_ids[i],
                ]
                handle.write(json.dumps(record) + "\n")


def _bindings() -> list[tuple[object, str, str, Callable]]:
    """(owner, attribute, span name, original) for every caller's binding."""
    modules = {name: importlib.import_module(f"btfas.{name}") for name in MODULES}
    targets = {}
    for qualified in FUNCTIONS:
        module, function = qualified.split(".")
        targets[id(getattr(modules[module], function))] = qualified
    found = []
    for name in MODULES:
        module = modules[name]
        for attr, value in vars(module).items():
            qualified = targets.get(id(value))
            if qualified is not None:
                found.append((module, attr, qualified, value))
    digraph = modules["graph_core"].BipartiteDigraph
    for method in METHODS:
        found.append((digraph, method, f"graph_core.{method}", vars(digraph)[method]))
    return found


def layer_metrics(summary: dict[str, dict[str, float]], rec: SpanRecorder, requests: int) -> dict[str, float]:
    """The per-layer metrics, as means per traced request."""

    def span(name: str, field: str) -> float:
        entry = summary.get(name)
        if entry is None:
            return 0.0
        value = entry[field]
        return value * 1000.0 / requests if field != "calls" else value / requests

    metrics = {}
    for name, (source, field) in PER_LAYER.items():
        if field == "count":
            metrics[name] = rec.counts.get(source, 0) / requests
        elif field == "max":
            metrics[name] = float(rec.max_depth)
        else:
            metrics[name] = span(source, field)
    return metrics


def module_self_share(summary: dict[str, dict[str, float]], wall: float) -> dict[str, float]:
    """Self time of each module's boundaries as a share of traced request time."""
    shares: dict[str, float] = defaultdict(float)
    for name, entry in summary.items():
        if "@" not in name:
            shares[name.split(".")[0]] += entry["self"] / wall
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


# Per-layer metric name -> (span or counter name, field).  Fields: "calls",
# "total" and "self" of a span (times in ms), "count" of a counter, and "max"
# for the deepest trace node.
PER_LAYER: dict[str, tuple[str, str]] = {
    "cycle_packing.greedy_pack.total_ms": ("cycle_packing.greedy_pack", "total"),
    "cycle_packing.greedy_pack.self_ms": ("cycle_packing.greedy_pack", "self"),
    "cycle_packing.cycles": ("cycle_packing.cycles", "count"),
    "c4free_fas.find_4cycle.calls": ("c4free_fas.find_4cycle", "calls"),
    "c4free_fas.find_4cycle.pack_ms": ("c4free_fas.find_4cycle@greedy_pack", "total"),
    "c4free_fas.find_4cycle.precheck_ms": ("c4free_fas.find_4cycle@fas_c4free", "total"),
    "c4free_fas.fas_c4free.total_ms": ("c4free_fas.fas_c4free", "total"),
    "c4free_fas.fas_c4free.self_ms": ("c4free_fas.fas_c4free", "self"),
    "c4free_fas.trim_acyclic_vertices.calls": ("c4free_fas.trim_acyclic_vertices", "calls"),
    "c4free_fas.trim_acyclic_vertices.self_ms": ("c4free_fas.trim_acyclic_vertices", "self"),
    "c4free_fas.trace_nodes": ("c4free_fas.trace_nodes", "count"),
    "c4free_fas.max_depth": ("", "max"),
    "c4free_fas.reversed_nodes": ("c4free_fas.reversed_nodes", "count"),
    "c4free_fas.y_center_nodes": ("c4free_fas.y_center_nodes", "count"),
    "p4_census.first_count.calls": ("p4_census.first_count", "calls"),
    "p4_census.first_count.self_ms": ("p4_census.first_count", "self"),
    "p4_census.sec_count.calls": ("p4_census.sec_count", "calls"),
    "p4_census.sec_count.self_ms": ("p4_census.sec_count", "self"),
    "p4_census.partition_around.calls": ("p4_census.partition_around", "calls"),
    "p4_census.partition_around.self_ms": ("p4_census.partition_around", "self"),
    "fas_engine.solve.total_ms": ("fas_engine.solve", "total"),
    "fas_engine.solve.self_ms": ("fas_engine.solve", "self"),
    "fas_engine.backward_arcs.calls": ("fas_engine.backward_arcs", "calls"),
    "fas_engine.backward_arcs.self_ms": ("fas_engine.backward_arcs", "self"),
    "fas_engine.residual_part": ("fas_engine.residual_part", "count"),
    "fas_engine.backward_part": ("fas_engine.backward_part", "count"),
    "graph_core.topological_order.calls": ("graph_core.topological_order", "calls"),
    "graph_core.topological_order.self_ms": ("graph_core.topological_order", "self"),
    "graph_core.topological_order.cyclic": ("graph_core.topological_order.cyclic", "count"),
    "graph_core.delete_arcs.calls": ("graph_core.delete_arcs", "calls"),
    "graph_core.delete_arcs.self_ms": ("graph_core.delete_arcs", "self"),
    "graph_core.delete_arcs.arcs": ("graph_core.delete_arcs.arcs", "count"),
    "graph_core.is_feedback_arc_set.total_ms": ("graph_core.is_feedback_arc_set", "total"),
    "graph_core.swap_sides.calls": ("graph_core.swap_sides", "calls"),
    "graph_core.swap_sides.self_ms": ("graph_core.swap_sides", "self"),
    "graph_core.induced_subgraph.calls": ("graph_core.induced_subgraph", "calls"),
    "graph_core.induced_subgraph.self_ms": ("graph_core.induced_subgraph", "self"),
    "graph_core.reverse.calls": ("graph_core.reverse", "calls"),
    "graph_core.build.self_ms": ("graph_core.build", "self"),
    "cli.parse_instance.calls": ("cli.parse_instance", "calls"),
    "cli.parse_instance.self_ms": ("cli.parse_instance", "self"),
    "cli.parse_arc.calls": ("cli.parse_arc", "calls"),
    "cli.parse_arc.self_ms": ("cli.parse_arc", "self"),
    "cli.run.self_ms": ("cli.run", "self"),
    "instance_gen.random_bt.total_ms": ("instance_gen.random_bt", "total"),
    "cli.render_instance.total_ms": ("cli.render_instance", "total"),
}
