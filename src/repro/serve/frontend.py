"""The asyncio serving frontend over a :class:`ShardedStore`.

Request lifecycle::

    submit ── admission ──► per-shard batch queue ──► batched execute
                │ reject                 │ timeout/error      │
                ▼                        ▼                    ▼
         Response("rejected")     bounded retries       Response("ok")
                                (capped backoff) ──► Response("timeout"/"error")

Every request gets an explicit :class:`Response` — admitted or not,
served or timed out — which is the serving contract the load generator
and the chaos tests assert: *no request is ever silently dropped and no
queue is ever unbounded*.  The pieces:

* :class:`~repro.serve.admission.AdmissionController` decides, before
  anything is queued, against the token bucket and the frontend's
  in-flight count;
* :class:`~repro.serve.batcher.Batcher` coalesces admitted requests
  per destination shard (keys route through the store's prime-indexed
  :class:`~repro.store.routing.RoutingTable`, so shard balance — the
  paper's Eq. 1 — directly shapes queue depths and tail latency); its
  one drain task runs each store batch inside its own step, so only a
  batch that an injected fault makes wait becomes a task;
* :class:`~repro.serve.faults.FaultPolicy` bounds how long any attempt
  may wait and how often it may retry — one deadline sweep per frontend
  expires overdue attempts; an optional
  :class:`~repro.serve.faults.FaultInjector` makes batches slow, fail,
  or stall per shard for chaos testing.

Instrumentation (all through :mod:`repro.obs`, free when disabled):
``serve.requests``/``serve.rejected``/``serve.retries``/
``serve.timeouts``/``serve.errors``/``serve.dropped`` counters,
``serve.latency_s`` and ``serve.batch_size`` histograms,
``serve.queue_depth`` gauge, synchronous ``serve.batch`` spans, and
1-in-``span_every`` sampled request traces: when the
process-wide :class:`~repro.obs.attrib.TraceCollector` is enabled, a
sampled request carries a :class:`~repro.obs.attrib.TraceContext`
through the whole pipeline and yields a causal stage timeline —
``admit`` (admission + routing), ``queue`` (enqueue → batch pickup),
``fault`` (injected delay/stall), ``serialize`` (head-of-line wait
within the batch), ``store`` (the backend op), ``settle`` (future set
→ submitter resumed), ``timeout`` (an abandoned attempt's measured
wait) and ``backoff`` (retry sleeps).  The finished trace feeds the
critical-path analyzer and flight recorder, and its ``trace_id`` is
attached to the ``serve.latency_s`` observation as an exemplar.
"""

from __future__ import annotations

import asyncio
from collections import deque
from time import perf_counter
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.obs import (
    get_collector,
    get_journal,
    get_registry,
    trace_span,
)
from repro.serve.admission import (
    REASON_QUEUE,
    REASON_RATE,
    AdmissionConfig,
    AdmissionController,
)
from repro.serve.batcher import BatchConfig, Batcher, WorkItem
from repro.serve.faults import FaultInjector, FaultPolicy, InjectedFault
from repro.store.engine import ShardedStore
from repro.store.traffic import Request

__all__ = [
    "Frontend",
    "FrontendStopped",
    "Response",
    "VIRTUAL_TICK_S",
]

#: Response statuses a submit can resolve to.
STATUSES = ("ok", "rejected", "timeout", "error", "dropped")

#: Virtual-clock tick charged per batch position: the k-th live item of
#: a dispatched batch gets ``service_time_s = k × tick``, modeling the
#: serial drain of a batch on its shard.  Wall-clock ``latency_s``
#: jitters with the host scheduler; this virtual service time is
#: exactly reproducible under a fixed seed, so load reports — and the
#: adversary's co-batching timing oracle — can assert on it.
VIRTUAL_TICK_S = 1e-6


class FrontendStopped(RuntimeError):
    """Set on futures still queued when the frontend shuts down."""


class Response(NamedTuple):
    """The explicit outcome of one submitted request: an immutable
    tuple, built positionally on the request path.

    ``latency_s`` is wall-clock (scheduler-dependent); ``service_time_s``
    is the deterministic virtual-clock batch-drain time (batch position
    × :data:`VIRTUAL_TICK_S`, 0.0 for requests that never reached a
    store batch) — assert on the latter when reproducibility matters.
    """

    op: str
    key: Any
    status: str  #: one of :data:`STATUSES`
    value: Any = None
    reason: Optional[str] = None
    retries: int = 0
    latency_s: float = 0.0
    service_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> Dict[str, Any]:
        return {"op": self.op, "key": self.key, "status": self.status,
                "value": self.value, "reason": self.reason,
                "retries": self.retries, "latency_s": self.latency_s,
                "service_time_s": self.service_time_s}


class Frontend:
    """Async get/put/delete serving over one sharded store.

    Args:
        store: the backend :class:`ShardedStore`.
        batch: coalescing bounds for the per-shard batchers.
        admission: token-bucket / queue-depth admission knobs.
        policy: per-attempt timeout (enforced by the deadline sweep) +
            bounded-retry schedule.
        injector: optional chaos-testing fault source.
        span_every: trace one request per this many submitted
            while tracing is enabled (0 disables; sampling bounds
            trace size under load).
    """

    def __init__(self, store: ShardedStore, *,
                 batch: BatchConfig = None,
                 admission: AdmissionConfig = None,
                 policy: FaultPolicy = None,
                 injector: FaultInjector = None,
                 span_every: int = 64):
        self.store = store
        self.policy = policy or FaultPolicy()
        self.injector = injector
        self.admission = AdmissionController(admission or AdmissionConfig())
        self._batch_config = batch or BatchConfig()
        self._store_batcher = Batcher(store.n_shards, self._run_store_batch,
                                      self._batch_config)
        self._bound_epoch = store.epoch
        self._rebind_task: Optional[asyncio.Task] = None
        self.rebinds = 0
        self._pending = 0
        # The deadline sweep: (deadline, future) per in-flight attempt,
        # in submission order, plus one timer for the head.
        self._deadlines: Deque[Tuple[float, asyncio.Future]] = deque()
        self._sweep_timer: Optional[asyncio.TimerHandle] = None
        self.peak_queue_depth = 0
        self._span_every = max(0, span_every)
        self.counts: Dict[str, int] = {
            "requests": 0, "ok": 0, "rejected": 0, "timeouts": 0,
            "errors": 0, "dropped": 0, "retries": 0,
        }
        registry = get_registry()
        self._registry = registry
        self._observed = registry.enabled
        scheme = store.scheme
        self._req_counters = {
            op: registry.counter("serve.requests", scheme=scheme, op=op)
            for op in ("get", "put", "delete")
        }
        self._latency = {
            op: registry.histogram("serve.latency_s", scheme=scheme, op=op)
            for op in ("get", "put", "delete")
        }
        self._reject_counters = {
            reason: registry.counter("serve.rejected", scheme=scheme,
                                     reason=reason)
            for reason in (REASON_RATE, REASON_QUEUE)
        }
        self._retry_counter = registry.counter("serve.retries", scheme=scheme)
        self._timeout_counter = registry.counter("serve.timeouts",
                                                 scheme=scheme)
        self._error_counter = registry.counter("serve.errors", scheme=scheme)
        self._dropped_counter = registry.counter("serve.dropped",
                                                 scheme=scheme)
        self._batch_counter = registry.counter("serve.batches", scheme=scheme)
        self._batch_size = registry.histogram("serve.batch_size",
                                              scheme=scheme)
        self._queue_gauge = registry.gauge("serve.queue_depth", scheme=scheme)

    # -- lifecycle -----------------------------------------------------

    @property
    def started(self) -> bool:
        return self._store_batcher.started

    async def start(self) -> "Frontend":
        await self._store_batcher.start()
        return self

    async def stop(self) -> None:
        """Stop the batcher; still-queued requests resolve as dropped."""
        if self._rebind_task is not None and not self._rebind_task.done():
            await self._rebind_task
        for item in await self._store_batcher.stop():
            self._pending -= 1
            if not item.future.done():
                item.future.set_exception(FrontendStopped("frontend stopped"))
        # Every attempt is settled now: dispatched ones by their batch,
        # the rest just above.
        if self._sweep_timer is not None:
            self._sweep_timer.cancel()
            self._sweep_timer = None
        self._deadlines.clear()

    async def __aenter__(self) -> "Frontend":
        return await self.start()

    async def __aexit__(self, *exc) -> bool:
        await self.stop()
        return False

    # -- public request surface ----------------------------------------

    async def get(self, key) -> Response:
        return await self.submit(Request("get", key))

    async def put(self, key, value) -> Response:
        return await self.submit(Request("put", key, value=value))

    async def delete(self, key) -> Response:
        return await self.submit(Request("delete", key))

    @property
    def queue_depth(self) -> int:
        """In-flight requests (queued + executing)."""
        return self._pending

    def _maybe_trace(self, op: str, key) -> Optional[Any]:
        """A TraceContext for 1-in-``span_every`` requests while the
        process-wide collector is enabled; None otherwise."""
        if not self._span_every:
            return None
        if (self.counts["requests"] - 1) % self._span_every != 0:
            return None
        collector = get_collector()
        if not collector.enabled:
            return None
        return collector.begin(op, scheme=self.store.scheme, key=str(key))

    async def submit(self, request) -> Response:
        """Serve one request end to end; always returns a Response.

        A traced request's stages tile its wall time: each boundary is
        one clock read, shared by the stage that ends there and the one
        that starts there, and the read that ends the last stage is also
        the response's ``latency_s`` (the trace's wall time), taken
        before the retry and timeout bookkeeping.
        """
        start = perf_counter()
        op = request.op
        key = getattr(request, "key", None)
        self.counts["requests"] += 1
        if self._observed:
            counter = self._req_counters.get(op)
            if counter is not None:
                counter.inc()
        ctx = self._maybe_trace(op, key)
        reason = self.admission.admit(self._pending, start)
        if reason is not None:
            now = perf_counter()
            if ctx is not None:
                ctx.stage("admit", start, now - start, reason=reason)
            self.counts["rejected"] += 1
            self._reject_counters[reason].inc()
            get_journal().emit("serve.admission_reject", op=op,
                               reason=reason, pending=self._pending)
            return self._finish(Response(
                op, key, "rejected", None, reason, 0, now - start), ctx)
        # The enqueue time is read only by a traced request's stages: the
        # clock read that ends admission (or a backoff) starts the queue.
        enqueued = 0.0
        if ctx is not None:
            enqueued = perf_counter()
            ctx.stage("admit", start, enqueued - start)
        loop = asyncio.get_running_loop()
        retries = 0
        while True:
            # Routing is re-resolved every attempt: a reshard may have
            # swapped the store's epoch (and a rebind the batcher)
            # while this request slept in backoff.
            batcher, queue_id = self._route(key)
            item = WorkItem(request, loop.create_future(), enqueued, ctx)
            self._pending += 1
            if self._pending > self.peak_queue_depth:
                self.peak_queue_depth = self._pending
            batcher.submit(queue_id, item)
            self._expire_after_timeout(item.future)
            failure = detail = None
            try:
                value = await item.future
            except asyncio.TimeoutError:
                # The deadline sweep expired the future; the batcher
                # will skip the abandoned item when its batch comes up
                # (and the finished trace rejects its late stage
                # appends).
                now = perf_counter()
                failure = "timeout"
                if ctx is not None:
                    ctx.stage("timeout", enqueued, now - enqueued,
                              attempt=retries)
            except FrontendStopped as exc:
                now = perf_counter()
                self.counts["dropped"] += 1
                self._dropped_counter.inc()
                get_journal().emit("serve.dropped", op=op,
                                   retries=retries)
                return self._finish(Response(
                    op, key, "dropped", None, str(exc), retries,
                    now - start, item.service_s), ctx)
            except Exception as exc:
                now = perf_counter()
                failure = "error"
                detail = f"{type(exc).__name__}: {exc}"
                if ctx is not None:
                    self._stage_settle(ctx, now, retries)
            else:
                now = perf_counter()
                self.counts["ok"] += 1
                if ctx is not None:
                    self._stage_settle(ctx, now, retries)
                response = Response(op, key, "ok", value, None, retries,
                                    now - start, item.service_s)
                if ctx is None and not self._observed:
                    return response
                return self._finish(response, ctx)
            if retries >= self.policy.max_retries:
                if failure == "timeout":
                    self.counts["timeouts"] += 1
                    self._timeout_counter.inc()
                    detail = f"timeout after {self.policy.timeout_s}s"
                    get_journal().emit("serve.timeout", op=op,
                                       retries=retries,
                                       timeout_s=self.policy.timeout_s)
                else:
                    self.counts["errors"] += 1
                    self._error_counter.inc()
                    get_journal().emit("serve.retry_exhausted", op=op,
                                       retries=retries, detail=detail)
                return self._finish(Response(
                    op, key, failure, None, detail, retries,
                    now - start, item.service_s), ctx)
            retries += 1
            self.counts["retries"] += 1
            self._retry_counter.inc()
            await asyncio.sleep(self.policy.backoff_s(retries))
            if ctx is not None:
                enqueued = perf_counter()
                ctx.stage("backoff", now, enqueued - now, attempt=retries)

    @staticmethod
    def _stage_settle(ctx, now: float, attempt: int) -> None:
        """The settle stage: from the store op's end to ``now``."""
        settled = ctx.marks.get("op_end")
        if settled is not None:
            ctx.stage("settle", settled, now - settled, attempt=attempt)

    # -- attempt deadlines ---------------------------------------------

    def _expire_after_timeout(self, future: asyncio.Future) -> None:
        """Fail ``future`` with ``asyncio.TimeoutError`` unless it settles
        within ``policy.timeout_s``.

        The policy is frozen, so deadlines rise in submission order: one
        deque and one timer for its head cover every in-flight attempt.
        Settled entries are dropped from the left on every append, so the
        deque holds only the in-flight window.
        """
        deadlines = self._deadlines
        while deadlines and deadlines[0][1].done():
            deadlines.popleft()
        loop = future.get_loop()
        deadlines.append((loop.time() + self.policy.timeout_s, future))
        if self._sweep_timer is None:
            self._sweep_timer = loop.call_at(deadlines[0][0], self._sweep,
                                             loop)

    def _sweep(self, loop: asyncio.AbstractEventLoop) -> None:
        """Expire every attempt whose deadline has passed, then re-arm
        the timer for the oldest attempt still in flight."""
        now = loop.time()
        deadlines = self._deadlines
        while deadlines:
            deadline, future = deadlines[0]
            if not future.done():
                if deadline > now:
                    break
                future.set_exception(asyncio.TimeoutError())
            deadlines.popleft()
        self._sweep_timer = (loop.call_at(deadlines[0][0], self._sweep, loop)
                             if deadlines else None)

    # -- epoch-aware routing -------------------------------------------

    @property
    def bound_epoch(self) -> int:
        """The routing epoch the store batcher's queues are sized for."""
        return self._bound_epoch

    def _route(self, key) -> "tuple[Batcher, int]":
        """(batcher, queue_id) for one store request under the current
        routing epoch.

        When the store's epoch has moved past the bound one, a rebind
        is scheduled (not awaited — admission never blocks on it) and
        the shard id is clamped onto the still-bound queue set.  The
        clamp only affects batching *locality*, never correctness: the
        executor operates on the store by key, and the store routes by
        its own current table.
        """
        if self.store.epoch != self._bound_epoch:
            self._schedule_rebind()
        batcher = self._store_batcher
        return batcher, self.store.shard_for(key) % batcher.n_queues

    def _schedule_rebind(self) -> None:
        if self._rebind_task is not None and not self._rebind_task.done():
            return
        self._rebind_task = asyncio.get_running_loop().create_task(
            self._rebind(), name="frontend-rebind")

    async def _rebind(self) -> None:
        """Swap in a batcher sized for the store's current epoch.

        The new batcher starts before the old one stops, and the old
        one's undispatched items are resubmitted (re-routed) onto the
        new queues, so no request is lost and admission stays up for
        the whole swap.  Loops in case the epoch moved again mid-swap.
        """
        while self._bound_epoch != self.store.epoch:
            target_epoch = self.store.epoch
            fresh = Batcher(self.store.n_shards, self._run_store_batch,
                            self._batch_config)
            await fresh.start()
            stale, self._store_batcher = self._store_batcher, fresh
            self._bound_epoch = target_epoch
            undispatched = await stale.stop()
            for item in undispatched:
                key = getattr(item.request, "key", None)
                fresh.submit(self.store.shard_for(key) % fresh.n_queues,
                             item)
            self.rebinds += 1
            self._registry.counter("serve.rebinds",
                                   scheme=self.store.scheme).inc()
            get_journal().emit("serve.rebind", epoch=target_epoch,
                               n_queues=fresh.n_queues,
                               scheme=self.store.scheme,
                               resubmitted=len(undispatched))

    async def rebind_routing(self) -> int:
        """Ensure the batcher matches the store's routing epoch; waits
        for any in-flight rebind to finish.  Returns the bound epoch."""
        if self.store.epoch != self._bound_epoch:
            self._schedule_rebind()
        if self._rebind_task is not None:
            await self._rebind_task
        return self._bound_epoch

    # -- batch executors (Batcher callbacks) ---------------------------

    def _pickup(self, queue_id: int,
                items: List[WorkItem]) -> List[WorkItem]:
        """The items of a picked-up batch still worth executing.

        Skips items whose attempt already settled (expired or failed)
        and records the queue stage of the live ones.
        """
        live = [item for item in items if not item.future.done()]
        if self._observed:
            self._batch_counter.inc()
            self._batch_size.observe(len(live))
            self._queue_gauge.set(self._pending)
        traced = [item for item in live if item.trace is not None]
        if traced:
            pickup = perf_counter()
            for item in traced:
                item.trace.stage("queue", item.enqueued_s,
                                 pickup - item.enqueued_s, shard=queue_id)
        return live

    async def _inject(self, queue_id: int,
                      live: List[WorkItem]) -> List[WorkItem]:
        """Apply any injected fault ahead of a batch: an injected error
        fails every live item and leaves none to run."""
        fault_from = perf_counter()
        try:
            await self.injector.before_batch(queue_id)
        except InjectedFault as exc:
            failed = perf_counter()
            for item in live:
                ctx = item.trace
                if ctx is not None:
                    ctx.stage("fault", fault_from, failed - fault_from,
                              shard=queue_id, injected="error")
                    ctx.mark("op_end", failed)
                if not item.future.done():
                    item.future.set_exception(exc)
            return []
        cleared = perf_counter()
        for item in live:
            if item.trace is not None:
                item.trace.stage("fault", fault_from, cleared - fault_from,
                                 shard=queue_id)
        return live

    async def _run_store_batch(self, shard_id: int,
                               items: List[WorkItem]) -> None:
        # A batch counts as in flight until it has executed, so a batch
        # sleeping in a shard stall still holds its admission slots.
        try:
            live = self._pickup(shard_id, items)
            if live and self.injector is not None:
                live = await self._inject(shard_id, live)
            if not live:
                return
            if get_collector().enabled:
                with trace_span("serve.batch", shard=shard_id,
                                size=len(live)):
                    self._serve_store_batch(shard_id, live)
            else:
                self._serve_store_batch(shard_id, live)
        finally:
            self._pending -= len(items)

    def _serve_store_batch(self, shard_id: int,
                           live: List[WorkItem]) -> None:
        store = self.store
        batch_from = perf_counter()
        for position, item in enumerate(live, 1):
            item.service_s = position * VIRTUAL_TICK_S
            request = item.request
            op = request.op
            ctx = item.trace
            if ctx is not None:
                # head-of-line wait: earlier items' ops in this batch
                op_from = perf_counter()
                ctx.stage("serialize", batch_from, op_from - batch_from,
                          shard=shard_id)
            try:
                if op == "get":
                    value = store.get(request.key)
                elif op == "put":
                    value = store.put(request.key, request.value)
                elif op == "delete":
                    value = store.delete(request.key)
                else:
                    raise ValueError(f"unknown request op {op!r}")
            except Exception as exc:
                if ctx is not None:
                    done = ctx.mark("op_end")
                    ctx.stage("store", op_from, done - op_from, op=op,
                              shard=shard_id)
                if not item.future.done():
                    item.future.set_exception(exc)
            else:
                if ctx is not None:
                    done = ctx.mark("op_end")
                    ctx.stage("store", op_from, done - op_from, op=op,
                              shard=shard_id)
                if not item.future.done():
                    item.future.set_result(value)

    # -- accounting ----------------------------------------------------

    def _finish(self, response: Response, ctx=None) -> Response:
        if self._observed:
            histogram = self._latency.get(response.op)
            if histogram is not None:
                histogram.observe(
                    response.latency_s,
                    exemplar=None if ctx is None else ctx.trace_id)
            self._queue_gauge.set(self._pending)
        if ctx is not None:
            get_collector().finish(ctx, status=response.status,
                                   wall_s=response.latency_s)
        return response

    def stats(self) -> Dict[str, Any]:
        """Serving counters + batching/admission/fault summaries."""
        batches = self._store_batcher.batches
        batched = self._store_batcher.batched_items
        return {
            **self.counts,
            "batches": batches,
            "batched_items": batched,
            "mean_batch_size": batched / batches if batches else 0.0,
            "queue_depth": self._pending,
            "peak_queue_depth": self.peak_queue_depth,
            "rebinds": self.rebinds,
            "bound_epoch": self._bound_epoch,
            "admission": self.admission.stats(),
            "faults": self.injector.stats() if self.injector else {},
        }

    def __repr__(self) -> str:
        state = "started" if self.started else "stopped"
        return (f"Frontend({state}, scheme={self.store.scheme!r}, "
                f"shards={self.store.n_shards}, "
                f"requests={self.counts['requests']})")
