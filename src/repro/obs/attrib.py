"""Traces — one model for per-request causal attribution and nested
wall-time spans — plus critical-path analysis, a tail-latency flight
recorder, and heavy-hitter tracking.

The metrics layer answers *how slow* (windowed p50/p95/p99 per scheme);
this module answers *where the time went*.  A sampled request carries a
:class:`TraceContext` across every async/thread boundary it crosses —
admission, the per-shard batcher queue, the store op, replica fan-out —
and each boundary records a named :class:`Stage` with a measured wall
duration.  The finished :class:`Trace` is a causal stage timeline, not
a per-thread flat span list, so the serving and cluster drills can
decompose a measured p99 into queue wait vs. hash/storage vs. fabric
vs. retry and prove where an optimisation actually moved time.

:func:`trace_span` times a synchronous region with the same records:
with no trace active it begins a root :class:`TraceContext`, inside
one it records a nested :class:`Stage` that carries its parent.  The
innermost open span lives in a contextvar, so parentage follows each
asyncio task; a plain thread starts its own roots.

Four consumers sit on top:

* :class:`CriticalPathAnalyzer` — aggregates traces into per-stage
  p50/p95/p99 contributions and a *coverage* number (Σ stage time /
  Σ wall time); the ``trace-check`` gate requires coverage ≥ 0.9.
* :class:`FlightRecorder` — bounded ring buffers of the slowest-N and
  all non-ok traces; ``dump()`` writes JSONL and journals an
  ``obs.flight_dump`` event carrying the slowest waterfall, and is
  wired to fire automatically when an SLO page trips.
* Histogram **exemplars** — the frontend passes ``trace_id`` into
  ``Histogram.observe(value, exemplar=...)`` so a p99 bucket links to
  a concrete recorded trace (see :mod:`repro.obs.registry`).
* :class:`HeavyHitterTracker` — Metwally space-saving top-K over
  routed keys, per shard/node, feeding ``HashQualityDetector`` so a
  concentration-drift alarm names the offending keys.

Everything is off by default: the process-wide :class:`TraceCollector`
starts disabled (``begin`` returns ``None`` and every call site guards
on that; :func:`trace_span` returns one shared no-op context manager),
so the untraced path costs one attribute check.
"""

from __future__ import annotations

import contextvars
import heapq
import itertools
import json
import threading
from collections import deque
from contextlib import contextmanager, nullcontext
from operator import attrgetter
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "CriticalPathAnalyzer",
    "FlightRecorder",
    "HeavyHitterTracker",
    "Stage",
    "Trace",
    "TraceCollector",
    "TraceContext",
    "activate",
    "current_trace",
    "get_collector",
    "set_collector",
    "trace_span",
]

_TRACE_SEQ = itertools.count(1)

#: Finished request traces a :class:`TraceCollector` keeps (oldest
#: evicted first).
TRACE_CAPACITY = 1024

#: Traces a :class:`FlightRecorder` keeps: the slowest by wall time,
#: and the most recent non-ok ones.
FLIGHT_SLOW_CAPACITY = 32
FLIGHT_ERROR_CAPACITY = 64


def _next_trace_id() -> str:
    return f"t{next(_TRACE_SEQ):08x}"


# ---------------------------------------------------------------------------
# Trace records
# ---------------------------------------------------------------------------

class Stage:
    """One named, measured segment of a trace's wall time.

    ``start_s`` is relative to the owning trace's start, so a list of
    stages renders directly as a waterfall.  ``parent`` is the
    enclosing stage of a nested span (None directly under the root).
    Slotted, not a frozen dataclass: the sampled request path builds
    these, and frozen construction costs several times more.
    """

    __slots__ = ("name", "start_s", "duration_s", "detail", "parent")

    def __init__(self, name: str, start_s: float, duration_s: float,
                 detail: Optional[Dict[str, Any]] = None,
                 parent: Optional["Stage"] = None):
        self.name = name
        self.start_s = start_s
        self.duration_s = duration_s
        self.detail = {} if detail is None else detail
        self.parent = parent

    def as_dict(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
        }
        if self.detail:
            row["detail"] = dict(self.detail)
        return row


_BY_START = attrgetter("start_s")


class Trace:
    """A finished timeline: identity, outcome, and its stages."""

    __slots__ = ("trace_id", "op", "scheme", "status", "start_s", "wall_s",
                 "stages", "baggage")

    def __init__(self, trace_id: str, op: str, scheme: str, status: str,
                 start_s: float, wall_s: float, stages: Tuple[Stage, ...],
                 baggage: Optional[Dict[str, Any]] = None):
        self.trace_id = trace_id
        self.op = op
        self.scheme = scheme
        self.status = status
        self.start_s = start_s
        self.wall_s = wall_s
        self.stages = stages
        self.baggage = {} if baggage is None else baggage

    def stage_total_s(self) -> float:
        return sum(s.duration_s for s in self.stages)

    def coverage(self) -> float:
        """Fraction of measured wall time explained by stages."""
        if self.wall_s <= 0.0:
            return 1.0
        return self.stage_total_s() / self.wall_s

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "op": self.op,
            "scheme": self.scheme,
            "status": self.status,
            "wall_s": self.wall_s,
            "coverage": self.coverage(),
            "stages": [s.as_dict() for s in self.stages],
            "baggage": dict(self.baggage),
        }


class TraceContext:
    """Mutable in-flight trace state, safe to hand across task/thread
    boundaries.

    The batcher executor and the submitting coroutine both write into
    one context, so stage appends go through a lock, and
    :meth:`finish` snapshots the stage list exactly once — a late
    append from an abandoned (timed-out) work item lands after the
    snapshot and is dropped rather than double-counted.  A synchronous
    op that crosses no boundary needs none of this: it can time its
    stages itself and hand them to :meth:`TraceCollector.record`.
    """

    __slots__ = ("trace_id", "op", "scheme", "baggage", "start_s",
                 "marks", "_stages", "_lock", "_done")

    def __init__(self, op: str, scheme: str = "",
                 trace_id: Optional[str] = None,
                 **baggage: Any):
        self.trace_id = trace_id or _next_trace_id()
        self.op = op
        self.scheme = scheme
        self.baggage = baggage
        self.start_s = perf_counter()
        self.marks: Dict[str, float] = {}
        self._stages: List[Stage] = []
        self._lock = threading.Lock()
        self._done = False

    def mark(self, name: str, at_s: Optional[float] = None) -> float:
        """Stamp a named instant (absolute ``perf_counter`` seconds)."""
        t = perf_counter() if at_s is None else at_s
        self.marks[name] = t
        return t

    def stage(self, name: str, start_s: float, duration_s: float,
              **detail: Any) -> bool:
        """Record one completed stage; ``start_s`` is absolute
        ``perf_counter`` seconds.  Returns False (and records nothing)
        once the trace has finished."""
        return self._add(Stage(name, start_s - self.start_s,
                               duration_s if duration_s > 0.0 else 0.0,
                               detail))

    def _add(self, stage: Stage) -> bool:
        with self._lock:
            if self._done:
                return False
            self._stages.append(stage)
        return True

    def finish(self, status: str = "ok",
               wall_s: Optional[float] = None) -> Trace:
        """Freeze into a :class:`Trace`; idempotent per context (later
        stage appends are rejected, later finishes see the same
        stages)."""
        with self._lock:
            self._done = True
            stages = tuple(sorted(self._stages, key=_BY_START))
        wall = (perf_counter() - self.start_s) if wall_s is None else wall_s
        return Trace(self.trace_id, self.op, self.scheme, status,
                     self.start_s, wall, stages, self.baggage)


# ---------------------------------------------------------------------------
# Context propagation and spans
# ---------------------------------------------------------------------------

#: The innermost open span of this execution flow, as ``(ctx, stage)``:
#: its trace, and its stage (None at the trace's root).
_ACTIVE: contextvars.ContextVar = contextvars.ContextVar(
    "repro_obs_active_span", default=None)


def current_trace() -> Optional[TraceContext]:
    """The TraceContext active in this task/thread, if any."""
    active = _ACTIVE.get()
    return None if active is None else active[0]


@contextmanager
def activate(ctx: Optional[TraceContext]):
    """Make ``ctx`` the active trace for the current execution flow.

    Each asyncio task inherits its creator's active span, but a thread
    (an executor worker included) starts with none: a callable run on
    one activates the context its submitter read from
    :func:`current_trace`, and its spans then nest under that root.
    """
    token = _ACTIVE.set(None if ctx is None else (ctx, None))
    try:
        yield ctx
    finally:
        _ACTIVE.reset(token)


#: What :meth:`TraceCollector.span` hands out while disabled.
_NULL_SPAN = nullcontext()


@contextmanager
def _span(collector: "TraceCollector", name: str, labels: Dict[str, Any]):
    """One open span: a root trace of its own, or a stage nested under
    the innermost open span of the active trace."""
    active = _ACTIVE.get()
    if active is None:
        ctx, stage = TraceContext(name), None
        ctx.baggage = labels  # not **labels: they may reuse `scheme`/`op`
    else:
        ctx, parent = active
        stage = Stage(name, perf_counter() - ctx.start_s, 0.0, labels,
                      parent)
    token = _ACTIVE.set((ctx, stage))
    try:
        yield
    finally:
        _ACTIVE.reset(token)
        if stage is None:
            collector._keep_span(ctx.finish(),
                                 threading.current_thread().name)
        else:
            stage.duration_s = perf_counter() - ctx.start_s - stage.start_s
            ctx._add(stage)


# ---------------------------------------------------------------------------
# Critical-path analysis
# ---------------------------------------------------------------------------

class CriticalPathAnalyzer:
    """Decompose measured request latency into per-stage contributions.

    Works over finished traces: aggregate stage totals give each
    stage's share of total wall time, and the nearest-rank p50/p95/p99
    traces (by wall) give the concrete stage breakdown *at* each
    percentile — "the p99 request spent 71% of its wall queued".
    """

    def __init__(self, traces: Sequence[Trace]):
        self.traces = [t for t in traces if t.wall_s > 0.0]

    def coverage(self) -> float:
        """Σ stage time / Σ wall time over all traces."""
        wall = sum(t.wall_s for t in self.traces)
        if wall <= 0.0:
            return 0.0
        return sum(t.stage_total_s() for t in self.traces) / wall

    def _at_rank(self, q: float) -> Trace:
        ordered = sorted(self.traces, key=lambda t: t.wall_s)
        idx = max(0, min(len(ordered) - 1,
                         int(round(q * len(ordered) + 0.5)) - 1))
        return ordered[idx]

    def decompose(self) -> Dict[str, Any]:
        """The attribution report the drill experiments publish."""
        if not self.traces:
            return {"n_traces": 0, "coverage": 0.0, "wall": {},
                    "stages": {}, "percentiles": {}}
        totals: Dict[str, float] = {}
        for t in self.traces:
            for s in t.stages:
                totals[s.name] = totals.get(s.name, 0.0) + s.duration_s
        wall_total = sum(t.wall_s for t in self.traces)
        stages = {
            name: {
                "total_s": total,
                "share": (total / wall_total) if wall_total > 0 else 0.0,
                "mean_s": total / len(self.traces),
            }
            for name, total in sorted(totals.items(),
                                      key=lambda kv: -kv[1])
        }
        percentiles: Dict[str, Any] = {}
        for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            t = self._at_rank(q)
            breakdown: Dict[str, float] = {}
            for s in t.stages:
                breakdown[s.name] = breakdown.get(s.name, 0.0) + s.duration_s
            percentiles[label] = {
                "trace_id": t.trace_id,
                "wall_s": t.wall_s,
                "coverage": t.coverage(),
                "stages": breakdown,
            }
        return {
            "n_traces": len(self.traces),
            "coverage": self.coverage(),
            "wall": {label: percentiles[label]["wall_s"]
                     for label in percentiles},
            "stages": stages,
            "percentiles": percentiles,
        }


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------

class FlightRecorder:
    """Bounded ring buffers of the traces worth keeping: the
    :data:`FLIGHT_SLOW_CAPACITY` slowest by wall time and every non-ok
    trace (most recent :data:`FLIGHT_ERROR_CAPACITY`, oldest evicted
    first).

    ``dump()`` is the page-time action: it writes the retained traces
    as JSONL (when given a path) and journals an ``obs.flight_dump``
    event that embeds the slowest trace's waterfall, so a fired SLO
    page always leaves behind at least one concrete slow request to
    read.
    """

    def __init__(self):
        self._slow: List[Tuple[float, int, Trace]] = []
        self._errors: deque = deque(maxlen=FLIGHT_ERROR_CAPACITY)
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self.recorded = 0
        self.dumps = 0

    def record(self, trace: Trace) -> None:
        wall_s = trace.wall_s
        with self._lock:
            self.recorded += 1
            if trace.status != "ok":
                self._errors.append(trace)
            slow = self._slow
            if len(slow) < FLIGHT_SLOW_CAPACITY:
                heapq.heappush(slow, (wall_s, next(self._seq), trace))
            elif wall_s > slow[0][0]:
                heapq.heapreplace(slow, (wall_s, next(self._seq), trace))

    def slowest(self) -> List[Trace]:
        """Retained slowest traces, slowest first."""
        with self._lock:
            return [t for _, _, t in
                    sorted(self._slow, key=lambda e: (-e[0], e[1]))]

    def errors(self) -> List[Trace]:
        """Retained non-ok traces in arrival order."""
        with self._lock:
            return list(self._errors)

    def clear(self) -> None:
        with self._lock:
            self._slow.clear()
            self._errors.clear()
            self.recorded = 0
            self.dumps = 0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "recorded": self.recorded,
            "dumps": self.dumps,
            "slowest": [t.as_dict() for t in self.slowest()],
            "errors": [t.as_dict() for t in self.errors()],
        }

    def dump(self, path=None, reason: str = "") -> Dict[str, Any]:
        """Persist the retained traces and journal the fact.

        Returns the dump summary (also the journal event payload plus
        the full trace list when a path was written)."""
        from repro.obs.journal import get_journal
        from repro.obs.registry import get_registry

        slow = self.slowest()
        errors = self.errors()
        seen = {t.trace_id for t in slow}
        traces = slow + [t for t in errors if t.trace_id not in seen]
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                for t in traces:
                    fh.write(json.dumps(t.as_dict(), sort_keys=True) + "\n")
        self.dumps += 1
        get_registry().counter("obs.flight_dumps").inc()
        event: Dict[str, Any] = {
            "reason": reason,
            "n_slow": len(slow),
            "n_error": len(errors),
            "path": None if path is None else str(path),
        }
        if slow:
            event["slowest"] = slow[0].as_dict()
        get_journal().emit("obs.flight_dump", **event)
        return {**event, "n_traces": len(traces)}


# ---------------------------------------------------------------------------
# Heavy hitters (space-saving top-K)
# ---------------------------------------------------------------------------

class HeavyHitterTracker:
    """Metwally space-saving sketch: top-K keys of a stream in O(K)
    memory.

    A new key evicts the current minimum and inherits its count as the
    overestimation ``error`` bound, so ``count - error`` is a
    guaranteed lower bound on the key's true frequency.  ``where``
    remembers the last shard/node the key routed to, which is what
    lets a concentration-drift alarm name both the key and the shard
    it is piling onto.
    """

    __slots__ = ("k", "offered", "_counts", "_errors", "_where", "_lock")

    def __init__(self, k: int = 8):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.offered = 0
        self._counts: Dict[Any, int] = {}
        self._errors: Dict[Any, int] = {}
        self._where: Dict[Any, Any] = {}
        self._lock = threading.Lock()

    def offer(self, key: Any, where: Any = None) -> None:
        with self._lock:
            self.offered += 1
            if key in self._counts:
                self._counts[key] += 1
            elif len(self._counts) < self.k:
                self._counts[key] = 1
                self._errors[key] = 0
            else:
                victim = min(self._counts, key=self._counts.get)
                floor = self._counts.pop(victim)
                self._errors.pop(victim, None)
                self._where.pop(victim, None)
                self._counts[key] = floor + 1
                self._errors[key] = floor
            self._where[key] = where

    def top(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """Tracked keys, heaviest first (JSON-friendly rows)."""
        with self._lock:
            rows = [{"key": key, "count": count,
                     "error": self._errors.get(key, 0),
                     "where": self._where.get(key)}
                    for key, count in sorted(self._counts.items(),
                                             key=lambda kv: -kv[1])]
        return rows if n is None else rows[:n]

    def clear(self) -> None:
        with self._lock:
            self.offered = 0
            self._counts.clear()
            self._errors.clear()
            self._where.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._counts)


# ---------------------------------------------------------------------------
# Process-wide collector
# ---------------------------------------------------------------------------

class TraceCollector:
    """Process-wide sink for traces, mirroring the registry / journal
    global pattern: disabled by default, one shared instance, swap
    with :func:`set_collector`.

    ``begin`` returns ``None`` while disabled so instrumented call
    sites stay a single ``if ctx is not None`` on the untraced path.
    Finished request traces land in a bounded deque (for the
    critical-path analyzer) and in the attached :class:`FlightRecorder`.
    Finished span roots (:meth:`span`) are kept apart until
    :meth:`clear`: exported, but never analyzed, flight-recorded, or
    counted against the request traces' capacity.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.flight = FlightRecorder()
        self.epoch = perf_counter()
        self._traces: deque = deque(maxlen=TRACE_CAPACITY)
        self._spans: List[Tuple[Trace, str]] = []
        self._lock = threading.Lock()

    def begin(self, op: str, scheme: str = "",
              **baggage: Any) -> Optional[TraceContext]:
        if not self.enabled:
            return None
        return TraceContext(op, scheme=scheme, **baggage)

    def finish(self, ctx: Optional[TraceContext], status: str = "ok",
               wall_s: Optional[float] = None) -> Optional[Trace]:
        if ctx is None:
            return None
        trace = ctx.finish(status=status, wall_s=wall_s)
        if self.enabled:
            self._keep(trace)
        return trace

    def record(self, op: str, scheme: str, status: str, start_s: float,
               wall_s: float, stages: Tuple[Stage, ...],
               baggage: Dict[str, Any]) -> Optional[Trace]:
        """Keep a request trace timed without a :class:`TraceContext`.

        A synchronous op that crosses no task or thread boundary times
        its own ``stages`` (in start order, ``start_s`` relative to the
        trace's absolute ``start_s``) and hands them over once; the
        trace takes the next trace id.  Nothing is kept while
        disabled."""
        if not self.enabled:
            return None
        trace = Trace(_next_trace_id(), op, scheme, status, start_s,
                      wall_s, stages, baggage)
        self._keep(trace)
        return trace

    def _keep(self, trace: Trace) -> None:
        with self._lock:
            self._traces.append(trace)
        self.flight.record(trace)

    def span(self, name: str, **labels: Any):
        """Context manager timing one region: a root trace when no
        trace is active, else a stage nested under the innermost open
        span; no-op while disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _span(self, name, labels)

    def _keep_span(self, trace: Trace, thread: str) -> None:
        with self._lock:
            self._spans.append((trace, thread))

    def traces(self, op: Optional[str] = None,
               scheme: Optional[str] = None) -> List[Trace]:
        """Retained request traces (span roots excluded)."""
        with self._lock:
            rows = list(self._traces)
        if op is not None:
            rows = [t for t in rows if t.op == op]
        if scheme is not None:
            rows = [t for t in rows if t.scheme == scheme]
        return rows

    def analyze(self, op: Optional[str] = None,
                scheme: Optional[str] = None) -> Dict[str, Any]:
        """Critical-path decomposition over the retained traces."""
        return CriticalPathAnalyzer(
            self.traces(op=op, scheme=scheme)).decompose()

    # -- export --------------------------------------------------------

    def flat(self) -> List[Dict[str, Any]]:
        """The span roots and retained request traces as depth-first rows,
        roots in start order; ``parent`` is the parent's row index
        (None for roots) so the JSON round-trips the tree exactly.  A
        request trace's root row is ``trace.<op>`` labeled with its id,
        scheme and status, and its ``thread`` is None: it may cross
        threads.  Times are relative to the last :meth:`clear`."""
        with self._lock:
            roots = [(t, Stage(t.op, 0.0, t.wall_s, t.baggage), thread)
                     for t, thread in self._spans]
            roots += [(t, Stage(f"trace.{t.op}", 0.0, t.wall_s,
                                {"trace_id": t.trace_id, "scheme": t.scheme,
                                 "status": t.status}), None)
                      for t in self._traces]
        roots.sort(key=lambda root: root[0].start_s)
        rows: List[Dict[str, Any]] = []
        for trace, root, thread in roots:
            origin = trace.start_s - self.epoch
            children: Dict[Stage, List[Stage]] = {}
            for stage in trace.stages:
                children.setdefault(stage.parent or root, []).append(stage)
            pending = [(root, 0, None)]
            while pending:  # depth-first, children in start order
                stage, depth, parent = pending.pop()
                rows.append({"name": stage.name, "labels": dict(stage.detail),
                             "start_s": origin + stage.start_s,
                             "duration_s": stage.duration_s,
                             "thread": thread, "depth": depth,
                             "parent": parent})
                pending.extend((child, depth + 1, len(rows) - 1) for child
                               in reversed(children.get(stage, ())))
        return rows

    def render(self) -> str:
        """:meth:`flat` as an indented tree with wall times, for the
        terminal (the ``--trace`` output)."""
        rows = self.flat()
        children: Dict[Optional[int], List[int]] = {}
        for index, row in enumerate(rows):
            children.setdefault(row["parent"], []).append(index)
        lines: List[str] = []

        def walk(index: int, prefix: str, branch: str, indent: str) -> None:
            row = rows[index]
            labels = " ".join(f"{k}={v}" for k, v in row["labels"].items())
            lines.append(f"{prefix}{branch}{row['name']}"
                         f"{' ' + labels if labels else ''}"
                         f"  {row['duration_s'] * 1e3:10.2f} ms")
            kids = children.get(index, [])
            for i, kid in enumerate(kids):
                tail = i == len(kids) - 1
                walk(kid, prefix + indent, "`- " if tail else "|- ",
                     "   " if tail else "|  ")

        for root in children.get(None, []):
            walk(root, "", "", "")
        return "\n".join(lines) if lines else "(no spans recorded)"

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self._spans = []
        self.flight.clear()
        self.epoch = perf_counter()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


_global_collector = TraceCollector(enabled=False)


def get_collector() -> TraceCollector:
    """The process-wide trace collector (disabled by default)."""
    return _global_collector


def set_collector(collector: TraceCollector) -> TraceCollector:
    """Swap the process-wide collector; returns the previous one."""
    global _global_collector
    previous = _global_collector
    _global_collector = collector
    return previous


def trace_span(name: str, **labels: Any):
    """:meth:`TraceCollector.span` on the process-wide collector (no-op
    while tracing is off)."""
    return _global_collector.span(name, **labels)
