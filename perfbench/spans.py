"""Span recorder for the traced benchmark run.

Wrappers installed from outside the program time every call into the public
functions of each plantkb module.  A span is ``(id, parent, name, start_ns,
end_ns, request_id)``; spans stay in memory and are written as one JSON file
when the process ends.  Counters ride along at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("turtle", "graph", "reasoner", "lint", "ontology", "sparql", "endpoint", "cli")

# The counters that give the per-layer ratios: Graph.insert is too frequent
# for a span, so it is counted and attributed to the innermost open span.
INSERT_IN_MATERIALIZE = "reasoner.insert_attempts"
INSERT_NEW_IN_MATERIALIZE = "reasoner.insert_new"
IDLE = "idle.serve_forever"


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, str | None]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []  # (span id, name) of the open spans of this thread
            local.rid = None
        return local

    def wrap(self, name: str, fn, observe=None, request_id=None):
        """Return ``fn`` wrapped in a span; ``observe(args, kwargs, result)`` feeds counters."""
        state, spans, ids, clock = self._state, self.spans, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = state()
            previous_rid = local.rid
            if request_id is not None:
                local.rid = request_id(args)
            stack = local.stack
            parent = stack[-1][0] if stack else 0
            sid = next(ids)
            stack.append((sid, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, local.rid))
                local.rid = previous_rid
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def count_insert(self, fn):
        """Wrap Graph.insert: count attempts and new triples made inside materialize."""
        state, counters = self._state, self.counters

        @functools.wraps(fn)
        def insert(graph, triple):
            added = fn(graph, triple)
            stack = state().stack
            if stack and stack[-1][1] == "reasoner.materialize":
                counters[INSERT_IN_MATERIALIZE] += 1
                if added:
                    counters[INSERT_NEW_IN_MATERIALIZE] += 1
            return added

        return insert

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh,
                      separators=(",", ":"))


def _observers(counters):
    def parse_bytes(args, kwargs, result):
        text = args[0] if args else kwargs["text"]
        counters["turtle.parse_bytes"] += len(text.encode("utf-8"))

    def match_stats(args, kwargs, result):
        triples, stats = result
        counters["graph.match_calls"] += 1
        counters["graph.entries_visited"] += stats.entries_visited
        counters["graph.match_rows"] += len(triples)

    def iterations(args, kwargs, result):
        counters["reasoner.materialize_calls"] += 1
        counters["reasoner.iterations"] += result.iterations

    def rows_out(args, kwargs, result):
        counters["sparql.rows_out"] += len(result.rows)

    return {
        "turtle.parse_turtle": parse_bytes,
        "graph.Graph.match_with_stats": match_stats,
        "reasoner.materialize": iterations,
        "sparql.evaluate": rows_out,
    }


def _handler_request_id(args):
    return args[0].headers.get("X-Request-Id")


def install(recorder: Recorder) -> None:
    """Wrap the public functions of every layer at every name bound to them.

    ``plantkb.cli.materialize`` and ``plantkb.reasoner.materialize`` are two
    bindings of one function, so each module's namespace is patched, not just
    the defining one.
    """
    import plantkb.cli  # noqa: F401  (imports every layer)

    observers = _observers(recorder.counters)
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"plantkb.{layer}"]
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_") and name != "entry_point"):
                span = f"{layer}.{name}"
                wrapped[id(obj)] = recorder.wrap(span, obj, observers.get(span))

    for modname, module in list(sys.modules.items()):
        if modname != "plantkb" and not modname.startswith("plantkb."):
            continue
        for name, obj in list(vars(module).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                setattr(module, name, wrapped[id(obj)])

    from http.server import ThreadingHTTPServer

    from plantkb.endpoint import _Handler
    from plantkb.graph import Graph

    # The serving thread waits for connections; recording that wait as its
    # own span keeps it out of the endpoint's and the CLI's self time.
    ThreadingHTTPServer.serve_forever = recorder.wrap(IDLE, ThreadingHTTPServer.serve_forever)

    for method in ("match_with_stats", "copy"):
        span = f"graph.Graph.{method}"
        setattr(Graph, method, recorder.wrap(span, getattr(Graph, method), observers.get(span)))
    Graph.insert = recorder.count_insert(Graph.insert)
    for method in ("do_GET", "do_POST"):
        setattr(_Handler, method, recorder.wrap(f"endpoint.{method}", getattr(_Handler, method),
                                                request_id=_handler_request_id))


# -- analysis (runs in the benchmark process) ---------------------------------


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per layer: each span's duration minus what its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid, parent, name, start, end, rid in spans:
        if parent:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for sid, parent, name, start, end, rid in spans:
        own = (end - start) - _covered(children.get(sid, []), start, end)
        out[name.split(".", 1)[0]] += own / 1e9
    return dict(out)


def inclusive_times(spans) -> dict[str, float]:
    """Seconds per span name, counting a span only when no ancestor has the same name."""
    by_id = {s[0]: s for s in spans}
    out: dict[str, float] = defaultdict(float)
    for sid, parent, name, start, end, rid in spans:
        p = parent
        nested = False
        while p:
            ancestor = by_id.get(p)
            if ancestor is None:
                break
            if ancestor[2] == name:
                nested = True
                break
            p = ancestor[1]
        if not nested:
            out[name] += (end - start) / 1e9
    return dict(out)


LIBRARY_SPANS = ("sparql.parse_query", "sparql.evaluate", "sparql.serialize_results")


def request_library_times(spans) -> dict[str, float]:
    """Seconds of in-process parse, evaluate and serialize time per request id."""
    out: dict[str, float] = defaultdict(float)
    for sid, parent, name, start, end, rid in spans:
        if rid is not None and name in LIBRARY_SPANS:
            out[rid] += (end - start) / 1e9
    return dict(out)
