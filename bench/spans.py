"""Spans around calls into torusperc's modules, recorded from the outside.

The tracer replaces module attributes and class methods with wrappers that
push a span (name, start, end, parent) on entry and close it on exit.  Spans
stay in memory; `self_times` subtracts each span's children from it.  The
program itself carries no tracing.
"""
from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict

# (layer, module, attribute) for plain functions.  A function imported by name
# into another module is patched there too, so every call site is seen.
FUNCTIONS = [
    ("lattice.tables", "lattice", "get_torus"),
    ("lattice.tables", "coupling", "get_torus"),
    ("lattice.tables", "estimators", "get_torus"),
    ("percolation.sample", "percolation", "sample_config"),
    ("percolation.sample", "coupling", "sample_config"),
    ("percolation.sample", "estimators", "sample_config"),
    ("cluster.label", "cluster", "component_map"),
    ("cycles.count", "cycles", "long_cycle_vertex_count"),
    ("surgery.stage1", "surgery", "depth_first_explore"),
    ("surgery.stage2", "surgery", "second_stage"),
    ("coupling.sample", "coupling", "coupled_sample"),
    ("coupling.inclusion", "coupling", "check_inclusion_property"),
    ("estimators.call", "estimators", "est_vertex_long_cycle"),
    ("estimators.call", "estimators", "est_mean_cluster_size"),
    ("estimators.call", "estimators", "est_cycle_cut"),
]

# (layer, module, class, method, cache attribute): table builds are traced only
# while the cache attribute is still unset, so cached look-ups cost no span.
TABLES = [
    ("lattice.tables", "lattice", "TorusGeometry", "neighbor_matrix", "_neighbor_matrix"),
    ("lattice.tables", "lattice", "TorusGeometry", "edge_array", "_edge_array"),
    ("lattice.tables", "lattice", "TorusGeometry", "_incident_tables", "_incident_eids"),
    ("lattice.tables", "lattice", "BoxGeometry", "__init__", None),
]

# (layer, module, class, method) traced on every call.
METHODS = [
    ("cycles.subgraph", "cycles", "OpenSubgraph", "__init__"),
    ("estimators.report", "estimators", "EstimateReport", "to_csv"),
    ("estimators.report", "estimators", "EstimateReport", "to_jsonl"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []   # id, parent, name, start, end
        self.counts: dict[str, float] = defaultdict(float)
        self.table_peak_bytes = 0
        self.active = False       # on only while a round's ops run
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, parent, name, 0.0, 0.0))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end)

    def _table_span(self, name: str, fn, *args, **kwargs):
        outer = self.active and not tracemalloc.is_tracing()
        if outer:
            tracemalloc.start()
        try:
            return self.span(name, fn, *args, **kwargs)
        finally:
            if outer:
                self.table_peak_bytes = max(self.table_peak_bytes,
                                            tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

    # -- patching -----------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap the package's layer entry points; missing ones are skipped."""
        mods = {name: getattr(package, name) for name in
                ("lattice", "percolation", "cluster", "cycles", "surgery",
                 "coupling", "estimators")}
        for layer, mod, attr in FUNCTIONS:
            fn = getattr(mods[mod], attr, None)
            if fn is not None:
                self._replace(mods[mod], attr, self._wrap(layer, fn))
        self._wrap_result_counters(mods)
        for layer, mod, cls_name, meth, cache in TABLES:
            cls = getattr(mods[mod], cls_name, None)
            fn = getattr(cls, meth, None)
            if fn is not None:
                self._replace(cls, meth, self._wrap_table(layer, fn, cache))
        for layer, mod, cls_name, meth in METHODS:
            cls = getattr(mods[mod], cls_name, None)
            fn = getattr(cls, meth, None)
            if fn is not None:
                self._replace(cls, meth, self._wrap(layer, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(layer, fn, *args, **kwargs)
        return traced

    def _wrap_table(self, layer: str, fn, cache: str | None):
        @functools.wraps(fn)
        def traced(obj, *args, **kwargs):
            if cache is not None and getattr(obj, cache, None) is not None:
                return fn(obj, *args, **kwargs)
            return self._table_span(layer, fn, obj, *args, **kwargs)
        return traced

    def _wrap_result_counters(self, mods) -> None:
        """Counts read from results: Unknown vertex counts and surgery decisions."""
        cycles, surgery = mods["cycles"], mods["surgery"]
        count_fn = getattr(cycles, "long_cycle_vertex_count", None)
        if count_fn is not None:
            @functools.wraps(count_fn)
            def counted(*args, **kwargs):
                count, unknown = count_fn(*args, **kwargs)
                self.counts["cycles.unknown"] += self.active and bool(unknown)
                return count, unknown
            self._replace(cycles, "long_cycle_vertex_count", counted)
        stage2 = getattr(surgery, "second_stage", None)
        if stage2 is not None:
            @functools.wraps(stage2)
            def decided(*args, **kwargs):
                res = stage2(*args, **kwargs)
                if not self.active:
                    return res
                self.counts["surgery.decisions"] += len(res.probed_edges) + len(res.special_edges)
                self.counts["surgery.special_edges"] += len(res.special_edges)
                return res
            self._replace(surgery, "second_stage", decided)

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: each span's duration minus its children's."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start) - child[sid]
        return dict(out)

    def span_records(self, limit: int) -> list[dict]:
        return [{"id": sid, "parent": parent, "name": name,
                 "start": round(start, 7), "end": round(end, 7)}
                for sid, parent, name, start, end in self.spans[:limit]]
