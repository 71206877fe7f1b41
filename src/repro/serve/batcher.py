"""Per-queue request coalescing with size and deadline bounds.

The :class:`Batcher` is the middle of the serving pipeline: admitted
requests land on one FIFO deque per backend shard (plus one for
simulation work), and one worker task per queue drains it in *batches*.
Once a worker picks up a batch's first item it yields one event-loop
iteration at a time and dispatches as soon as the first of these
happens:

* an iteration adds no item to its queue (the queue stopped growing);
* the batch holds ``max_batch_size`` items;
* ``max_wait_s`` has passed since the first item was picked up.

A burst co-submitted in one loop tick (``asyncio.gather``) therefore
still drains as one batch, while a request whose shard has no company
does not wait out a window nobody will fill.

Batching is what turns hash-routed shards into a fabric: requests for
the same shard share one dispatch (amortizing per-dispatch overhead
exactly the way a sliced LLC amortizes a slice access), while shards
never block each other — a stalled queue delays only its own batches.

The batcher is policy-free: it knows nothing about stores, faults or
retries.  It calls one async ``execute(queue_id, items)`` callback per
batch; the frontend owns what execution means, how failures map to
futures, and all metrics.  Items whose futures are already settled
(e.g. expired by the frontend's deadline sweep) are delivered anyway —
the executor skips them — so accounting stays in one place.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Awaitable, Callable, Deque, List, Optional

__all__ = ["BatchConfig", "Batcher", "WorkItem"]

#: Sentinel closing one worker's queue.
_CLOSE = object()


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


@dataclass
class WorkItem:
    """One queued request plus the future its response resolves.

    ``trace`` carries the submitting request's
    :class:`repro.obs.attrib.TraceContext` (None when unsampled)
    across the queue boundary: the executor runs in a *different*
    asyncio task than the submitter, so the context cannot ride a
    contextvar here — it rides the item, and the executor records
    queue-wait / fault / store stages into it directly.

    ``service_s`` is the executor's *virtual-clock* service time for
    this item (batch position × tick; see
    :data:`repro.serve.frontend.VIRTUAL_TICK_S`): deterministic under a
    fixed seed where wall-clock latency is not, which is what makes it
    usable both as a reproducible load-report statistic and as the
    timing side channel the adversary reads.
    """

    request: Any
    future: asyncio.Future
    enqueued_s: float = 0.0
    trace: Any = None
    service_s: float = 0.0

    @classmethod
    def make(cls, request: Any, trace: Any = None) -> "WorkItem":
        loop = asyncio.get_running_loop()
        return cls(request=request, future=loop.create_future(),
                   enqueued_s=perf_counter(), trace=trace)


class Batcher:
    """N bounded-coalescing queues, one drain task each.

    Args:
        n_queues: independent queues (= shard count for store work).
        execute: async callback ``execute(queue_id, items)`` invoked
            once per batch; must settle every live item's future and
            must not raise (defensively, a raising executor fails the
            whole batch's unsettled futures instead of killing the
            worker).
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
        self._queues: List[Deque[Any]] = []
        #: Per queue, the future its idle worker sleeps on (None while
        #: the worker is busy); ``submit`` resolves it.
        self._wakers: List[Optional[asyncio.Future]] = []
        self._tasks: List[asyncio.Task] = []
        self.batches = 0
        self.batched_items = 0

    # -- lifecycle -----------------------------------------------------

    @property
    def started(self) -> bool:
        return bool(self._tasks)

    @property
    def n_queues(self) -> int:
        """How many independent queues this batcher fans out over."""
        return self._n_queues

    async def start(self) -> "Batcher":
        if self.started:
            return self
        self._queues = [deque() for _ in range(self._n_queues)]
        self._wakers = [None] * self._n_queues
        self._tasks = [asyncio.create_task(self._worker(qid),
                                           name=f"batcher-{qid}")
                       for qid in range(self._n_queues)]
        return self

    async def stop(self) -> List[WorkItem]:
        """Stop every worker; returns items left undispatched."""
        if not self.started:
            return []
        for qid in range(self._n_queues):
            self.submit(qid, _CLOSE)
        await asyncio.gather(*self._tasks)
        dropped = [item for queue in self._queues for item in queue
                   if item is not _CLOSE]
        self._queues, self._wakers, self._tasks = [], [], []
        return dropped

    # -- submission ----------------------------------------------------

    def submit(self, queue_id: int, item: WorkItem) -> None:
        """Enqueue one item (the frontend has already admitted it)."""
        if not self.started:
            raise RuntimeError("batcher is not started")
        self._queues[queue_id].append(item)
        waker = self._wakers[queue_id]
        if waker is not None:
            self._wakers[queue_id] = None
            if not waker.done():
                waker.set_result(None)

    def queue_depth(self) -> int:
        """Items currently sitting in queues (excludes executing)."""
        return sum(len(queue) for queue in self._queues)

    @property
    def mean_batch_size(self) -> float:
        return self.batched_items / self.batches if self.batches else 0.0

    # -- draining ------------------------------------------------------

    async def _worker(self, qid: int) -> None:
        queue = self._queues[qid]
        loop = asyncio.get_running_loop()
        max_size = self.config.max_batch_size
        max_wait = self.config.max_wait_s
        while True:
            while not queue:
                waker = self._wakers[qid] = loop.create_future()
                await waker
            batch: List[WorkItem] = []
            closing = False
            deadline = loop.time() + max_wait
            while True:
                while queue and len(batch) < max_size:
                    item = queue.popleft()
                    if item is _CLOSE:
                        closing = True
                        break
                    batch.append(item)
                if (closing or len(batch) == max_size
                        or loop.time() >= deadline):
                    break
                await asyncio.sleep(0)  # one loop iteration for company
                if not queue:
                    break
            if batch:
                self.batches += 1
                self.batched_items += len(batch)
                try:
                    await self._execute(qid, batch)
                except Exception as exc:  # executor contract violation
                    for work in batch:
                        if not work.future.done():
                            work.future.set_exception(exc)
            if closing:
                return

    def __repr__(self) -> str:
        state = "started" if self.started else "stopped"
        return (f"Batcher({state}, queues={self._n_queues}, "
                f"batches={self.batches}, "
                f"mean_batch={self.mean_batch_size:.2f})")
