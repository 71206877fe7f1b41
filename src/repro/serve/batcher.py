"""Per-queue request coalescing with size and deadline bounds.

The :class:`Batcher` is the middle of the serving pipeline: admitted
requests land on one FIFO deque per backend shard, and one drain task
collects them into *batches*.
Each loop step the drain takes what arrived on every queue that is
filling a batch, and a batch closes as soon as the first of these
happens:

* a loop iteration adds no item to its queue (the queue stopped
  growing);
* the batch holds ``max_batch_size`` items;
* ``max_wait_s`` has passed since its first item was picked up.

A burst co-submitted in one loop tick (``asyncio.gather``) therefore
still drains as one batch, while a request whose shard has no company
does not wait out a window nobody will fill.

The drain dispatches the batches that closed in one step in the order
their queues first received an item, and starts each *eagerly*: the
executor runs inside the drain's step, in a fresh copy of its context,
until it first really suspends (what Python 3.12's eager tasks do).  A
batch that never waits costs no task.  A batch that does wait continues
as a task of its own, and its queue is *held* — it dispatches nothing
else until that task ends — so a queue stays FIFO with at most one
batch executing, and a stalled queue delays only its own batches.

Batching is what turns hash-routed shards into a fabric: requests for
the same shard share one dispatch (amortizing per-dispatch overhead
exactly the way a sliced LLC amortizes a slice access), while shards
never block each other.

The batcher is policy-free: it knows nothing about stores, faults or
retries.  It calls one async ``execute(queue_id, items)`` callback per
batch; the frontend owns what execution means, how failures map to
futures, and all metrics.  Items whose futures are already settled
(e.g. expired by the frontend's deadline sweep) are delivered anyway —
the executor skips them — so accounting stays in one place.
"""

from __future__ import annotations

import asyncio
import contextvars
from collections import deque
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import (Any, Awaitable, Callable, Coroutine, Deque, Dict, List,
                    Optional, Tuple)

__all__ = ["BatchConfig", "Batcher", "WorkItem"]


@dataclass(frozen=True)
class BatchConfig:
    """Coalescing bounds for every queue of one :class:`Batcher`.

    Attributes:
        max_batch_size: most items one dispatch may carry.
        max_wait_s: upper bound on filling a batch, measured from the
            moment its first item is picked up.  A batch usually closes
            sooner, at the first event-loop iteration that adds no item
            to its queue; the bound only cuts a trickle that never
            stops (latency is bounded, batching is best-effort).
    """

    max_batch_size: int = 16
    max_wait_s: float = 0.002

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")


class WorkItem:
    """One queued request plus the future its response resolves.

    A mutable slotted record, built positionally on the request path:
    ``WorkItem(request, future, enqueued_s, trace)``.

    ``trace`` carries the submitting request's
    :class:`repro.obs.attrib.TraceContext` (None when unsampled)
    across the queue boundary: the executor runs outside the
    submitter's task, so the context cannot ride a contextvar here —
    it rides the item, and the executor records queue-wait / fault /
    store stages into it directly.

    ``service_s`` is the executor's *virtual-clock* service time for
    this item (batch position × tick; see
    :data:`repro.serve.frontend.VIRTUAL_TICK_S`): deterministic under a
    fixed seed where wall-clock latency is not, which is what makes it
    usable both as a reproducible load-report statistic and as the
    timing side channel the adversary reads.
    """

    __slots__ = ("request", "future", "enqueued_s", "trace", "service_s")

    def __init__(self, request: Any, future: asyncio.Future,
                 enqueued_s: float = 0.0, trace: Any = None,
                 service_s: float = 0.0):
        self.request = request
        self.future = future
        self.enqueued_s = enqueued_s
        self.trace = trace
        self.service_s = service_s

    @classmethod
    def make(cls, request: Any, trace: Any = None) -> "WorkItem":
        loop = asyncio.get_running_loop()
        return cls(request, loop.create_future(), perf_counter(), trace)


class _Resumed:
    """Awaiting this continues a coroutine that was started by hand.

    ``coro`` has yielded ``pending`` to whoever ran it: a future it
    waits on, or None for a bare yield, whose loop iteration has passed
    by the time an awaiting task first steps.  Every later send and
    throw is relayed to ``coro``, as a task running it would.
    """

    __slots__ = ("_coro", "_pending")

    def __init__(self, coro: Coroutine, pending: Any):
        self._coro = coro
        self._pending = pending

    def __await__(self):
        coro, pending = self._coro, self._pending
        try:
            if pending is None:
                pending = coro.send(None)
            while True:
                try:
                    sent = yield pending
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:
                    pending = coro.throw(exc)
                else:
                    pending = coro.send(sent)
        except StopIteration as stop:
            return stop.value


async def _continue(coro: Coroutine, pending: Any) -> Any:
    return await _Resumed(coro, pending)


def _start_eagerly(coro: Coroutine,
                   context: contextvars.Context) -> Optional[asyncio.Task]:
    """Run ``coro`` in ``context`` until it first suspends.

    Returns None when it finished without suspending (an exception it
    raised propagates), else a task that drives the rest of it in a
    copy of ``context`` taken at this point.  Until then the coroutine
    runs inside the caller's task, so ``asyncio.current_task()`` names
    the caller there.
    """
    try:
        pending = context.run(coro.send, None)
    except StopIteration:
        return None
    loop = asyncio.get_running_loop()
    return context.run(loop.create_task, _continue(coro, pending))


def _fail(batch: List[WorkItem], exc: BaseException) -> None:
    for work in batch:
        if not work.future.done():
            work.future.set_exception(exc)


class Batcher:
    """N bounded-coalescing queues drained by one task.

    Each loop step the drain applies the window rule to every queue
    filling a batch, then starts the batches that closed, eagerly and
    in the order their queues first received an item.  A queue whose
    batch suspended is held until that batch's task ends; the drain
    keeps a reference to every such task and reads its outcome.

    Args:
        n_queues: independent queues (= shard count for store work).
        execute: async callback ``execute(queue_id, items)`` invoked
            once per batch; must settle every live item's future and
            must not raise (defensively, a raising executor, before or
            after it suspends, fails the whole batch's unsettled
            futures instead of stopping its queue).
        config: coalescing bounds.
    """

    def __init__(self, n_queues: int,
                 execute: Callable[[int, List[WorkItem]], Awaitable[None]],
                 config: BatchConfig = None):
        if n_queues < 1:
            raise ValueError("n_queues must be >= 1")
        self.config = config or BatchConfig()
        self._n_queues = n_queues
        self._execute = execute
        self._queues: List[Deque[WorkItem]] = []
        #: Per queue, whether the drain owns it: a batch of it is about
        #: to start, filling or held.  ``submit`` claims an idle queue.
        self._claimed: List[bool] = []
        #: Claimed queues whose next batch has not started yet, in the
        #: order they received their first item.
        self._fresh: List[int] = []
        #: Queue -> (batch, deadline) while it fills, in start order.
        self._filling: Dict[int, Tuple[List[WorkItem], float]] = {}
        #: Queue -> the task of its batch that suspended.
        self._held: Dict[int, asyncio.Task] = {}
        self._drain: Optional[asyncio.Task] = None
        #: The future an idle drain sleeps on; ``submit`` resolves it.
        self._waker: Optional[asyncio.Future] = None
        self._stopping = False
        #: Items submitted after ``stop`` began, returned undispatched.
        self._late: List[WorkItem] = []
        self.batches = 0
        self.batched_items = 0

    # -- lifecycle -----------------------------------------------------

    @property
    def started(self) -> bool:
        return self._drain is not None

    @property
    def n_queues(self) -> int:
        """How many independent queues this batcher fans out over."""
        return self._n_queues

    async def start(self) -> "Batcher":
        if self.started:
            return self
        self._queues = [deque() for _ in range(self._n_queues)]
        self._claimed = [False] * self._n_queues
        self._drain = asyncio.create_task(self._run_drain(),
                                          name="batcher-drain")
        return self

    async def stop(self) -> List[WorkItem]:
        """Dispatch everything queued so far, wait for running batches,
        and stop the drain; returns the items submitted after ``stop``
        began, undispatched."""
        if not self.started:
            return []
        self._stopping = True
        self._wake()
        await self._drain
        dropped = self._late
        self._queues, self._claimed, self._late = [], [], []
        self._drain, self._stopping = None, False
        return dropped

    # -- submission ----------------------------------------------------

    def submit(self, queue_id: int, item: WorkItem) -> None:
        """Enqueue one item (the frontend has already admitted it)."""
        if self._drain is None:
            raise RuntimeError("batcher is not started")
        if self._stopping:
            self._late.append(item)
            return
        self._queues[queue_id].append(item)
        if not self._claimed[queue_id]:
            self._claimed[queue_id] = True
            self._fresh.append(queue_id)
            self._wake()

    def queue_depth(self) -> int:
        """Items currently sitting in queues (excludes executing)."""
        return sum(len(queue) for queue in self._queues)

    @property
    def mean_batch_size(self) -> float:
        return self.batched_items / self.batches if self.batches else 0.0

    # -- draining ------------------------------------------------------

    def _wake(self) -> None:
        waker = self._waker
        if waker is not None:
            self._waker = None
            if not waker.done():
                waker.set_result(None)

    def _take(self, queue: Deque[WorkItem], batch: List[WorkItem]) -> None:
        room = self.config.max_batch_size - len(batch)
        if len(queue) <= room:
            batch.extend(queue)
            queue.clear()
        else:
            for _ in range(room):
                batch.append(queue.popleft())

    def _begin(self, qid: int, now: float) -> Optional[List[WorkItem]]:
        """Pick up the next batch of a claimed queue; returns it when it
        closes at once (full, ``max_wait_s`` of 0, or stopping), else
        leaves it filling."""
        batch: List[WorkItem] = []
        self._take(self._queues[qid], batch)
        deadline = now + self.config.max_wait_s
        if (self._stopping or len(batch) == self.config.max_batch_size
                or now >= deadline):
            return batch
        self._filling[qid] = (batch, deadline)
        return None

    async def _run_drain(self) -> None:
        loop = asyncio.get_running_loop()
        queues, fresh = self._queues, self._fresh
        max_size = self.config.max_batch_size
        take = self._take
        while True:
            if not fresh and not self._filling:
                if self._stopping and not self._held:
                    return
                self._waker = loop.create_future()
                await self._waker
                continue
            stopping = self._stopping
            now = loop.time()
            closed = []
            filling = {}
            for qid, entry in self._filling.items():
                batch, deadline = entry
                queue = queues[qid]
                if queue:
                    take(queue, batch)
                    if not (stopping or len(batch) == max_size
                            or now >= deadline):
                        filling[qid] = entry
                        continue
                closed.append((qid, batch))
            self._filling = filling
            for qid in fresh:
                batch = self._begin(qid, now)
                if batch is not None:
                    closed.append((qid, batch))
            fresh.clear()
            for qid, batch in closed:
                self._dispatch(loop, qid, batch)
            if self._filling or fresh:
                await asyncio.sleep(0)  # one loop iteration for company

    def _dispatch(self, loop: asyncio.AbstractEventLoop, qid: int,
                  batch: List[WorkItem]) -> None:
        """Start one closed batch, then the next batch of its queue if
        items are left and the queue is not held."""
        while batch is not None:
            self.batches += 1
            self.batched_items += len(batch)
            try:
                task = _start_eagerly(self._execute(qid, batch),
                                      contextvars.copy_context())
            except Exception as exc:  # executor contract violation
                _fail(batch, exc)
                task = None
            if task is not None:
                self._held[qid] = task
                task.add_done_callback(partial(self._release, qid, batch))
                return
            if not self._queues[qid]:
                self._claimed[qid] = False
                return
            batch = self._begin(qid, loop.time())

    def _release(self, qid: int, batch: List[WorkItem],
                 task: asyncio.Task) -> None:
        """A held queue's batch task ended: read its outcome and let the
        queue's remaining items start their batch."""
        del self._held[qid]
        if not task.cancelled():
            exc = task.exception()
            if exc is not None:  # executor contract violation
                _fail(batch, exc)
        if self._queues[qid]:
            self._fresh.append(qid)
        else:
            self._claimed[qid] = False
        self._wake()

    def __repr__(self) -> str:
        state = "started" if self.started else "stopped"
        return (f"Batcher({state}, queues={self._n_queues}, "
                f"batches={self.batches}, "
                f"mean_batch={self.mean_batch_size:.2f})")
