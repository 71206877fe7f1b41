"""Frontend: request lifecycle, accounting, metrics."""

import asyncio

import pytest

from repro.obs import enable_observability, get_registry
from repro.serve import (
    AdmissionConfig,
    BatchConfig,
    FaultPolicy,
    Frontend,
    Response,
)
from repro.store import ShardedStore, make_traffic


def run(coro):
    return asyncio.run(coro)


def make_frontend(**kwargs):
    store = ShardedStore(n_shards=16, scheme=kwargs.pop("scheme", "pmod"),
                         shard_capacity=128)
    kwargs.setdefault("batch", BatchConfig(max_batch_size=8,
                                           max_wait_s=0.001))
    return Frontend(store, **kwargs)


class TestBasicOps:
    def test_put_get_delete_roundtrip(self):
        async def scenario():
            async with make_frontend() as frontend:
                put = await frontend.put(1, "hello")
                got = await frontend.get(1)
                deleted = await frontend.delete(1)
                missing = await frontend.get(1)
                return put, got, deleted, missing

        put, got, deleted, missing = run(scenario())
        assert put.ok and got.ok and deleted.ok and missing.ok
        assert got.value == "hello"
        assert missing.value is None

    def test_every_request_gets_a_response(self):
        requests = make_traffic("zipfian", 500, seed=0)

        async def scenario():
            async with make_frontend() as frontend:
                responses = await asyncio.gather(
                    *(frontend.submit(r) for r in requests))
                stats = frontend.stats()
            return responses, stats

        responses, stats = run(scenario())
        assert len(responses) == 500
        assert all(isinstance(r, Response) for r in responses)
        assert all(r.ok for r in responses)
        assert stats["requests"] == 500
        assert stats["ok"] == 500
        assert stats["queue_depth"] == 0  # everything drained

    def test_requests_actually_batch(self):
        requests = make_traffic("zipfian", 400, n_keys=64, seed=1)

        async def scenario():
            async with make_frontend(
                    batch=BatchConfig(max_batch_size=32,
                                      max_wait_s=0.005)) as frontend:
                await asyncio.gather(*(frontend.submit(r) for r in requests))
                return frontend.stats()

        stats = run(scenario())
        assert stats["mean_batch_size"] > 1.0
        assert stats["batches"] < 400

    def test_response_as_dict_is_json_shaped(self):
        import json

        async def scenario():
            async with make_frontend() as frontend:
                return await frontend.put(5, 6)

        payload = run(scenario()).as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["status"] == "ok"


class TestAdmission:
    def test_queue_full_rejects_explicitly(self):
        async def scenario():
            frontend = make_frontend(
                admission=AdmissionConfig(max_queue_depth=1),
                batch=BatchConfig(max_batch_size=1, max_wait_s=0.0))
            async with frontend:
                # issue concurrently so the queue actually fills
                responses = await asyncio.gather(
                    *(frontend.put(i, i) for i in range(50)))
            return responses, frontend

        responses, frontend = run(scenario())
        statuses = {r.status for r in responses}
        rejected = [r for r in responses if r.status == "rejected"]
        assert statuses <= {"ok", "rejected"}
        assert rejected, "queue cap never triggered"
        assert all(r.reason == "queue_full" for r in rejected)
        assert frontend.peak_queue_depth <= 1

    def test_rate_limit_rejects_with_reason(self):
        async def scenario():
            frontend = make_frontend(
                admission=AdmissionConfig(rate=1.0, burst=2))
            async with frontend:
                return await asyncio.gather(
                    *(frontend.put(i, i) for i in range(10)))

        responses = run(scenario())
        ok = [r for r in responses if r.ok]
        rejected = [r for r in responses if r.status == "rejected"]
        assert len(ok) == 2  # the burst allowance
        assert len(rejected) == 8
        assert all(r.reason == "rate_limited" for r in rejected)


class TestMetrics:
    def test_counters_flow_into_registry(self):
        enable_observability()
        registry = get_registry()

        async def scenario():
            frontend = make_frontend()
            async with frontend:
                await asyncio.gather(*(frontend.put(i, i) for i in range(20)))

        run(scenario())
        snapshot = registry.snapshot()
        put_series = [c["value"] for c in snapshot["counters"]
                      if c["name"] == "serve.requests"
                      and c["labels"].get("op") == "put"]
        assert sum(put_series) == 20
        assert any(c["name"] == "serve.batches"
                   for c in snapshot["counters"])
        latency = [h for h in snapshot["histograms"]
                   if h["name"] == "serve.latency_s"
                   and h["labels"].get("op") == "put"]
        assert latency and latency[0]["count"] == 20

    def test_disabled_registry_costs_nothing_visible(self):
        async def scenario():
            frontend = make_frontend()  # global registry is disabled
            async with frontend:
                await frontend.put(1, 1)
                return frontend.stats()

        stats = run(scenario())
        assert stats["ok"] == 1


class TestLifecycle:
    def test_stop_resolves_stuck_requests_as_dropped(self):
        async def scenario():
            frontend = make_frontend(
                policy=FaultPolicy(timeout_s=5.0, max_retries=0),
                batch=BatchConfig(max_batch_size=1, max_wait_s=0.0))
            await frontend.start()
            # stop the batcher while a request is mid-queue by racing
            # a big gather against stop; any request still queued when
            # the workers exit must resolve as dropped, never hang.
            submits = asyncio.gather(
                *(frontend.put(i, i) for i in range(200)))
            await asyncio.sleep(0)  # let submissions enqueue
            await frontend.stop()
            return await submits

        responses = run(scenario())
        assert len(responses) == 200
        assert {r.status for r in responses} <= {"ok", "dropped"}

    def test_submit_requires_started_frontend(self):
        async def scenario():
            frontend = make_frontend()
            with pytest.raises(RuntimeError, match="not started"):
                await frontend.put(1, 1)

        run(scenario())

    def test_one_drain_task_per_started_frontend(self):
        async def scenario():
            async with make_frontend():
                return [task for task in asyncio.all_tasks()
                        if task.get_name() == "batcher-drain"]

        assert len(run(scenario())) == 1
