"""Recorded batching of a seeded closed-loop serving run.

How the frontend's batcher coalesces requests is what the virtual-clock
``service_time_s`` reads and what the adversary's co-batching oracle
relies on, so it must answer the same however the batcher is written.
The run drives 4000 zipfian requests (seed 0) from 32 closed-loop
clients through a 32-shard pMod store, and compares with values
recorded from the per-queue worker implementation:

* small outputs literally: the frontend's ``batches`` and
  ``batched_items``;
* the responses as a SHA-256 prefix of their JSON: every response's
  ``(op, key, status, value, service_time_s)``, in completion order.

``max_wait_s`` and ``timeout_s`` are 10 s, so no time bound fires: a
batch closes only at the first loop iteration that adds nothing to its
queue, or full, and the recorded values do not depend on host speed.
"""

import asyncio
import hashlib
import json

from repro.serve import BatchConfig, FaultPolicy, Frontend
from repro.store import ShardedStore
from repro.store.traffic import make_traffic

CLIENTS = 32

RECORDED_BATCHES = 2126
RECORDED_RESPONSES = "59d1eb120bcf116f"


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=list)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


async def drive():
    requests = make_traffic("zipfian", 4000, seed=0)
    store = ShardedStore(n_shards=32, scheme="pmod", shard_capacity=512)
    frontend = Frontend(
        store, batch=BatchConfig(max_batch_size=32, max_wait_s=10.0),
        policy=FaultPolicy(timeout_s=10.0, max_retries=0))
    pending = list(reversed(requests))
    responses = []

    async def client():
        while pending:
            responses.append(await frontend.submit(pending.pop()))

    async with frontend:
        await asyncio.gather(*(client() for _ in range(CLIENTS)))
    return frontend.stats(), responses


def test_closed_loop_batching_is_recorded():
    stats, responses = asyncio.run(drive())
    assert stats["batches"] == RECORDED_BATCHES
    assert stats["batched_items"] == 4000
    assert digest([[r.op, r.key, r.status, r.value, r.service_time_s]
                   for r in responses]) == RECORDED_RESPONSES
