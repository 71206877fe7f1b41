"""A traced request's stages must tile its wall time.

Each stage boundary in ``Frontend.submit`` is one clock read, shared by
the stage ending there and the stage starting there, and the read that
ends the last stage is the response's ``latency_s``.  So time spent
between stages (journaling a timeout, a GC pass, a deschedule) belongs
to a stage or lies after the trace's end; no stretch of the wall goes
unattributed.  Here a journal that sleeps while recording the final
``serve.timeout`` stands in for such a pause.
"""

import asyncio
import time

from repro.obs import Journal, enable_observability, set_journal
from repro.serve import BatchConfig, FaultInjector, FaultPolicy, Frontend
from repro.store import ShardedStore


class SlowTimeoutJournal(Journal):
    """Sleeps 20 ms whenever it records a ``serve.timeout`` event."""

    def emit(self, kind, **fields):
        if kind == "serve.timeout":
            time.sleep(0.02)
        return super().emit(kind, **fields)


def test_retried_timeout_stages_cover_the_wall():
    _, collector = enable_observability()
    set_journal(SlowTimeoutJournal())
    store = ShardedStore(n_shards=8, scheme="pmod", shard_capacity=64)
    injector = FaultInjector(stall_s=0.05,
                             stalled_shards=set(range(store.n_shards)))
    frontend = Frontend(
        store, batch=BatchConfig(max_batch_size=4, max_wait_s=0.0),
        policy=FaultPolicy(timeout_s=0.02, max_retries=1),
        injector=injector, span_every=1)

    async def scenario():
        async with frontend:
            return await frontend.put(42, "v")

    response = asyncio.run(scenario())
    assert response.status == "timeout" and response.retries == 1
    traces = collector.traces(op="put")
    assert len(traces) == 1
    trace = traces[0]
    assert trace.wall_s == response.latency_s
    names = [stage.name for stage in trace.stages]
    for name in ("admit", "timeout", "backoff"):
        assert name in names
    assert trace.coverage() >= 0.99
