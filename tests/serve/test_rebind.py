"""Frontend epoch rebinding: live reshard under a serving frontend."""

import asyncio

from repro.serve import BatchConfig, Frontend
from repro.store import Migrator, ShardedStore


def run(coro):
    return asyncio.run(coro)


def make_store(n_shards=61):
    return ShardedStore(n_shards, "pmod", shard_capacity=256, assoc=16)


def make_frontend(store):
    return Frontend(store, batch=BatchConfig(max_batch_size=8,
                                             max_wait_s=0.001))


class TestExplicitRebind:
    def test_rebind_resizes_the_queue_fabric(self):
        async def scenario():
            store = make_store()
            async with make_frontend(store) as frontend:
                assert frontend.bound_epoch == 0
                store.begin_reshard(store.routing.grown())  # 61 -> 67
                Migrator(store).run()
                bound = await frontend.rebind_routing()
                stats = frontend.stats()
            return store, bound, stats

        store, bound, stats = run(scenario())
        assert store.n_shards == 67
        assert bound == store.epoch == 1
        assert stats["rebinds"] == 1
        assert stats["bound_epoch"] == 1

    def test_rebind_without_epoch_change_is_a_noop(self):
        async def scenario():
            store = make_store()
            async with make_frontend(store) as frontend:
                bound = await frontend.rebind_routing()
                return bound, frontend.stats()["rebinds"]

        bound, rebinds = run(scenario())
        assert bound == 0
        assert rebinds == 0


class TestServingAcrossEpochs:
    def test_requests_survive_a_live_reshard(self):
        """Writes before, during and after a reshard all serve; the
        frontend rebinds itself from the traffic path (no explicit
        rebind call) and nothing is lost."""

        async def scenario():
            store = make_store()
            async with make_frontend(store) as frontend:
                for key in range(100):
                    assert (await frontend.put(key, key)).ok
                store.begin_reshard(store.routing.grown())
                migrator = Migrator(store)
                # Serve *while* migrating: reads fall through to the
                # old epoch, writes land on the new one.
                for key in range(100, 200):
                    assert (await frontend.put(key, key)).ok
                    migrator.step()
                report = migrator.run()
                # Traffic after the swap routes the new epoch and
                # triggers the frontend's self-rebind.
                responses = [await frontend.get(key) for key in range(200)]
                await frontend.rebind_routing()
                stats = frontend.stats()
            return report, responses, stats, store

        report, responses, stats, store = run(scenario())
        assert report.left_behind == 0
        assert all(r.ok for r in responses)
        assert [r.value for r in responses] == list(range(200))
        assert stats["rebinds"] >= 1
        assert stats["bound_epoch"] == store.epoch == 1
        assert stats["errors"] == 0 and stats["dropped"] == 0

    def test_rebind_chases_consecutive_reshards(self):
        async def scenario():
            store = make_store()
            async with make_frontend(store) as frontend:
                for _ in range(2):  # 61 -> 67 -> 71
                    store.begin_reshard(store.routing.grown())
                    Migrator(store).run()
                    await frontend.rebind_routing()
                return frontend.stats(), store

        stats, store = run(scenario())
        assert store.n_shards == 71
        assert stats["bound_epoch"] == store.epoch == 2
        assert stats["rebinds"] == 2
