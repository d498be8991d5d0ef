"""Span tracing around the public functions of each exitgraph layer.

The tracer wraps functions from the outside: it replaces a module
attribute by a wrapper in every ``exitgraph`` namespace that binds the
same function object (``dual.shear_to_generic``, ``svg.dual_triangles``,
``cli.exit_edges_dual``, ...), so calls made through any of those names
record a span.  Nothing inside the package changes.

Hot predicates (``orientation``, ``segments_cross``,
``is_exit_edge_with_witness``) are never wrapped: they run millions of
times and the wrapper would dominate their cost.

A name that no longer exists (removed or renamed by a later change)
records no span instead of failing.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, function) pairs wrapped by the traced pass, outermost first
LAYERS = (
    ("cli", "cli"),
    ("pointfile", "parse_point_list"),
    ("geometry", "certify_general_position"),
    ("geometry", "shear_to_generic"),
    ("dual", "exit_edges_dual"),
    ("dual", "crossing_tables"),
    ("dual", "dual_triangles"),
    ("dual", "hourglasses"),
    ("fastscan", "crossing_tables_np"),
    ("fastscan", "scan_exit_items_np"),
    ("fastscan", "group_exit_items_np"),
    ("analysis", "stats_report"),
    ("analysis", "exit_graph_crossings"),
    ("analysis", "outer_face_vertices"),
    ("analysis", "search_min_exit_edges"),
    ("analysis", "random_general_position"),
    ("svg", "render_svg"),
    ("report", "build_report"),
    ("report", "render_json"),
)

# layers whose peak traced memory is taken in a tracemalloc pass of its own
MEMORY_LAYERS = (
    ("fastscan", "crossing_tables_np"),
    ("fastscan", "scan_exit_items_np"),
)


def _count_shear(args, result, counts):
    counts["geometry.shear_to_generic.nonzero_lambda"] += result[1] != 0


def _count_tables_np(args, result, counts):
    order, rank = result
    counts["fastscan.crossing_tables_np.table_bytes_computed"] += order.nbytes + rank.nbytes


def _count_scan_np(args, result, counts):
    order = args[0]
    counts["fastscan.scan_exit_items_np.items"] += len(result[0])
    counts["fastscan.scan_exit_items_np.slots"] += order.shape[0] * order.shape[1]


def _count_edges(args, result, counts):
    counts["dual.exit_edges_dual.edges"] += len(result)
    counts["dual.exit_edges_dual.two_witness_edges"] += sum(
        len(e.witnesses) == 2 for e in result)


def _count_len(key):
    def count(args, result, counts):
        counts[key] += len(result)
    return count


def _count_bytes(key):
    def count(args, result, counts):
        counts[key] += len(result.encode("utf-8"))
    return count


def _count_crossings(args, result, counts):
    counts["analysis.exit_graph_crossings.crossings"] += result


# per-layer counters, run on each call's arguments and result
COUNTERS = {
    "geometry.shear_to_generic": _count_shear,
    "fastscan.crossing_tables_np": _count_tables_np,
    "fastscan.scan_exit_items_np": _count_scan_np,
    "dual.exit_edges_dual": _count_edges,
    "dual.dual_triangles": _count_len("dual.dual_triangles.triangles"),
    "dual.hourglasses": _count_len("dual.hourglasses.hourglasses"),
    "analysis.exit_graph_crossings": _count_crossings,
    "svg.render_svg": _count_bytes("svg.render_svg.bytes"),
    "report.render_json": _count_bytes("report.render_json.bytes"),
}


def _namespaces() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "exitgraph" or name.startswith("exitgraph."))]


def _resolve(layers):
    """Yield (span name, original function) for every layer that exists."""
    for modname, fname in layers:
        try:
            mod = importlib.import_module(f"exitgraph.{modname}")
        except ImportError:
            continue
        fn = getattr(mod, fname, None)
        if callable(fn):
            yield f"{modname}.{fname}", fn


def _patch(layers, make_wrapper) -> list:
    """Replace every binding of each layer function; returns the undo list."""
    resolved = list(_resolve(layers))
    namespaces = _namespaces()
    undo = []
    for name, fn in resolved:
        wrapper = make_wrapper(name, fn)
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, fn))
    return undo


def _unpatch(undo) -> None:
    for mod, attr, fn in reversed(undo):
        setattr(mod, attr, fn)


class Tracer:
    """Records (name, start, end, parent, op) spans in memory.

    Span times are read from a clock that stops while the tracer does its
    own bookkeeping (counting edges, measuring output bytes), so that work
    does not show up as self time of the enclosing layer.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._paused = 0.0
        self._undo: list = []
        self.op = -1

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, self.now(), None, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = self.now()
                stack.pop()
            if counter is not None:
                t0 = time.perf_counter()
                counter(args, result, counts)
                self._paused += time.perf_counter() - t0
            return result

        return wrapper

    def __enter__(self):
        self._undo = _patch(LAYERS, self._wrap)
        return self

    def __exit__(self, *exc):
        _unpatch(self._undo)
        self._undo = []

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for idx, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += (end - start) - child[idx]
        return out

    def calls(self) -> dict[str, int]:
        out: defaultdict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def certify_attempts_in_sampling(self) -> int:
        """Certification calls made directly by random_general_position."""
        spans = self.spans
        return sum(1 for name, _s, _e, parent, _op in spans
                   if name == "geometry.certify_general_position" and parent >= 0
                   and spans[parent][0] == "analysis.random_general_position")

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans]


class MemoryProbe:
    """Peak traced memory of single calls, each measured from call entry.

    Runs as its own pass so tracemalloc's cost never enters span times.
    """

    def __init__(self):
        self.peak_bytes: defaultdict[str, int] = defaultdict(int)
        self._undo: list = []

    def _wrap(self, name, fn):
        peaks = self.peak_bytes

        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                peaks[name] = max(peaks[name], peak)

        return wrapper

    def __enter__(self):
        self._undo = _patch(MEMORY_LAYERS, self._wrap)
        return self

    def __exit__(self, *exc):
        _unpatch(self._undo)
        self._undo = []


def memory_layer_names() -> tuple[str, ...]:
    return tuple(f"{m}.{f}" for m, f in MEMORY_LAYERS)


def per_layer_metrics(tracer: Tracer, probe: MemoryProbe | None, ops: int,
                      overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-operation layer numbers, keyed by the BENCHMARK.json names.

    Layers the workload never calls read 0.
    """
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    per_op = 1.0 / ops
    out: dict[str, tuple[float, str]] = {}
    for modname, fname in LAYERS:
        name = f"{modname}.{fname}"
        out[f"{name}.self_s"] = (self_s.get(name, 0.0) * per_op, "s")
    for name in memory_layer_names():
        peak = probe.peak_bytes.get(name, 0) if probe is not None else 0
        out[f"{name}.peak_mb"] = (peak / 2**20, "MiB")
    for key in ("geometry.shear_to_generic.nonzero_lambda",
                "dual.exit_edges_dual.edges",
                "dual.exit_edges_dual.two_witness_edges",
                "dual.dual_triangles.triangles",
                "dual.hourglasses.hourglasses",
                "analysis.exit_graph_crossings.crossings"):
        out[key] = (counts.get(key, 0) * per_op, "count")
    for key in ("fastscan.crossing_tables_np.table_bytes_computed",
                "svg.render_svg.bytes", "report.render_json.bytes"):
        out[key] = (counts.get(key, 0) * per_op, "bytes")
    out["dual.exit_edges_dual.calls"] = (calls.get("dual.exit_edges_dual", 0) * per_op, "count")
    slots = counts.get("fastscan.scan_exit_items_np.slots", 0)
    out["fastscan.scan_exit_items_np.hit_ratio"] = (
        counts.get("fastscan.scan_exit_items_np.items", 0) / slots if slots else 0.0, "ratio")
    attempts = tracer.certify_attempts_in_sampling()
    out["analysis.random_general_position.accept_ratio"] = (
        calls.get("analysis.random_general_position", 0) / attempts if attempts else 0.0,
        "ratio")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out
