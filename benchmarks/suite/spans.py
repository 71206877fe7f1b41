"""Outside-in span recorder for the suite's traced runs.

The recorder wraps public methods on object *instances* a workload
built (``recorder.wrap(store, "get", "store.engine")``), so the program
under test is never edited: each call becomes a span with a name, start,
end and parent.  Parents come from a contextvar holding the innermost
open span, which follows execution flow across asyncio tasks.

Every call is folded into per-layer count / total / self time, where
self time is the span's duration minus the part its wrapped children
cover.  A span with no parent is a top-level op and gets a request id;
the full span tree of one top-level op in ``sample_every`` is kept in
memory for :meth:`SpanRecorder.write`.

Only synchronous methods are wrapped.  An awaited coroutine's duration
includes time other tasks ran, so the Batcher's async hop is attributed
by busy share (total span time over wall time), not per request.
"""

from __future__ import annotations

import contextvars
import json
from time import perf_counter_ns
from typing import Any, Dict, List, Optional


class _Span:
    __slots__ = ("sid", "parent", "rid", "kept", "child_ns")

    def __init__(self, sid: int, parent: Optional["_Span"], rid: int,
                 kept: bool):
        self.sid = sid
        self.parent = parent
        self.rid = rid
        self.kept = kept
        self.child_ns = 0


class LayerStats:
    """Aggregate of every span recorded under one layer name."""

    __slots__ = ("count", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0


class SpanRecorder:
    """Per-layer span aggregation plus a 1-in-N sample of full spans."""

    def __init__(self, sample_every: int = 1000):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.layers: Dict[str, LayerStats] = {}
        #: summed duration of top-level spans (no wrapped parent)
        self.root_ns = 0
        self.roots = 0
        self.spans: List[Dict[str, Any]] = []
        self._next_sid = 0
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "suite_span", default=None)

    def wrap(self, obj: Any, attr: str, layer: str) -> None:
        """Replace ``obj.attr`` (a bound method) with a span-recording
        wrapper on this instance only."""
        original = getattr(obj, attr)
        stats = self.layers.setdefault(layer, LayerStats())
        current_get = self._current.get
        current_set = self._current.set
        current_reset = self._current.reset
        clock = perf_counter_ns
        recorder = self

        def traced(*args, **kwargs):
            parent = current_get()
            if parent is None:
                rid = recorder.roots
                recorder.roots = rid + 1
                kept = rid % recorder.sample_every == 0
            else:
                rid, kept = parent.rid, parent.kept
            sid = -1
            if kept:
                sid = recorder._next_sid
                recorder._next_sid = sid + 1
            span = _Span(sid, parent, rid, kept)
            token = current_set(span)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                duration = clock() - start
                current_reset(token)
                stats.count += 1
                stats.total_ns += duration
                stats.self_ns += duration - span.child_ns
                if parent is None:
                    recorder.root_ns += duration
                else:
                    parent.child_ns += duration
                if kept:
                    recorder.spans.append({
                        "id": sid, "name": layer, "request_id": rid,
                        "parent": None if parent is None else parent.sid,
                        "start_ns": start, "end_ns": start + duration,
                    })

        setattr(obj, attr, traced)

    def total_s(self, layer: str) -> float:
        stats = self.layers.get(layer)
        return stats.total_ns / 1e9 if stats else 0.0

    def self_s(self, layer: str) -> float:
        stats = self.layers.get(layer)
        return stats.self_ns / 1e9 if stats else 0.0

    def write(self, path) -> None:
        """Dump the sampled spans and the per-layer aggregate as JSON."""
        doc = {
            "sample_every": self.sample_every,
            "top_level_ops": self.roots,
            "layers": {name: {"count": s.count, "total_ns": s.total_ns,
                              "self_ns": s.self_ns}
                       for name, s in sorted(self.layers.items())},
            "spans": self.spans,
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)
