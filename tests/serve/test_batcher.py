"""Batcher: coalescing bounds, the batch window, shutdown draining."""

import asyncio
from time import perf_counter

import pytest

from repro.serve import BatchConfig, Batcher, WorkItem


def run(coro):
    return asyncio.run(coro)


class Recorder:
    """Execute callback that settles futures and logs batch shapes."""

    def __init__(self, fail=False):
        self.batches = []
        self.fail = fail

    async def __call__(self, queue_id, items):
        self.batches.append((queue_id, len(items)))
        if self.fail:
            raise RuntimeError("executor blew up")
        for item in items:
            if not item.future.done():
                item.future.set_result(item.request)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_batch_size": 0}, {"max_wait_s": -0.1},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BatchConfig(**kwargs)

    def test_invalid_queue_count_rejected(self):
        with pytest.raises(ValueError):
            Batcher(0, Recorder())


class TestCoalescing:
    def test_burst_coalesces_into_one_batch(self):
        async def scenario():
            recorder = Recorder()
            batcher = Batcher(2, recorder,
                              BatchConfig(max_batch_size=8, max_wait_s=0.05))
            await batcher.start()
            items = [WorkItem.make(i) for i in range(6)]
            for item in items:
                batcher.submit(0, item)
            results = await asyncio.gather(*(i.future for i in items))
            await batcher.stop()
            return recorder.batches, results

        batches, results = run(scenario())
        assert batches == [(0, 6)]
        assert results == list(range(6))

    def test_max_batch_size_splits(self):
        async def scenario():
            recorder = Recorder()
            batcher = Batcher(1, recorder,
                              BatchConfig(max_batch_size=4, max_wait_s=0.05))
            await batcher.start()
            items = [WorkItem.make(i) for i in range(10)]
            for item in items:
                batcher.submit(0, item)
            await asyncio.gather(*(i.future for i in items))
            await batcher.stop()
            return recorder.batches

        batches = run(scenario())
        assert all(size <= 4 for _, size in batches)
        assert sum(size for _, size in batches) == 10

    def test_deadline_dispatches_partial_batch(self):
        """A lone item must not wait forever for a full batch."""
        async def scenario():
            recorder = Recorder()
            batcher = Batcher(1, recorder,
                              BatchConfig(max_batch_size=64, max_wait_s=0.01))
            await batcher.start()
            item = WorkItem.make("solo")
            batcher.submit(0, item)
            result = await asyncio.wait_for(item.future, 1.0)
            await batcher.stop()
            return recorder.batches, result

        batches, result = run(scenario())
        assert batches == [(0, 1)]
        assert result == "solo"

    def test_queues_are_independent(self):
        async def scenario():
            recorder = Recorder()
            batcher = Batcher(3, recorder,
                              BatchConfig(max_batch_size=8, max_wait_s=0.01))
            await batcher.start()
            items = {qid: WorkItem.make(qid) for qid in range(3)}
            for qid, item in items.items():
                batcher.submit(qid, item)
            await asyncio.gather(*(i.future for i in items.values()))
            await batcher.stop()
            return recorder.batches

        batches = run(scenario())
        assert sorted(qid for qid, _ in batches) == [0, 1, 2]

    def test_mean_batch_size_accounting(self):
        async def scenario():
            batcher = Batcher(1, Recorder(),
                              BatchConfig(max_batch_size=8, max_wait_s=0.02))
            await batcher.start()
            items = [WorkItem.make(i) for i in range(8)]
            for item in items:
                batcher.submit(0, item)
            await asyncio.gather(*(i.future for i in items))
            await batcher.stop()
            return batcher.batches, batcher.batched_items, \
                batcher.mean_batch_size

        batches, items, mean = run(scenario())
        assert items == 8
        assert mean == pytest.approx(items / batches)


class TestWindow:
    """A batch closes at the first loop iteration that adds nothing to
    its queue; ``max_wait_s`` only bounds a trickle that never stops."""

    def test_lone_item_does_not_wait_out_max_wait(self):
        async def scenario():
            recorder = Recorder()
            batcher = Batcher(1, recorder,
                              BatchConfig(max_batch_size=32, max_wait_s=0.5))
            await batcher.start()
            item = WorkItem.make("solo")
            began = perf_counter()
            batcher.submit(0, item)
            result = await item.future
            waited = perf_counter() - began
            await batcher.stop()
            return recorder.batches, result, waited

        batches, result, waited = run(scenario())
        assert batches == [(0, 1)]
        assert result == "solo"
        assert waited < 0.05

    def test_one_item_per_iteration_keeps_the_window_open(self):
        """A queue that grows every loop iteration keeps filling its
        batch, up to ``max_batch_size``."""
        async def scenario():
            recorder = Recorder()
            batcher = Batcher(1, recorder,
                              BatchConfig(max_batch_size=8, max_wait_s=5.0))
            await batcher.start()
            items = []
            for i in range(12):
                items.append(WorkItem.make(i))
                batcher.submit(0, items[-1])
                await asyncio.sleep(0)
            results = await asyncio.gather(*(i.future for i in items))
            await batcher.stop()
            return recorder.batches, results

        batches, results = run(scenario())
        assert batches == [(0, 8), (0, 4)]
        assert results == list(range(12))

    def test_endless_trickle_is_cut_at_max_wait(self):
        max_wait = 0.02

        async def scenario():
            dispatched = []

            async def execute(queue_id, items):
                dispatched.append((perf_counter(), len(items)))
                for item in items:
                    item.future.set_result(None)

            batcher = Batcher(1, execute, BatchConfig(max_batch_size=10**6,
                                                      max_wait_s=max_wait))
            await batcher.start()
            began = perf_counter()
            items = []
            while not dispatched:
                items.append(WorkItem.make(len(items)))
                batcher.submit(0, items[-1])
                await asyncio.sleep(0)
            await asyncio.gather(*(i.future for i in items))
            await batcher.stop()
            return began, dispatched

        began, dispatched = run(scenario())
        first_at, first_size = dispatched[0]
        assert max_wait <= first_at - began < max_wait + 0.05
        assert 1 < first_size < 10**6


class TestFailureAndShutdown:
    def test_raising_executor_fails_batch_not_worker(self):
        async def scenario():
            batcher = Batcher(1, Recorder(fail=True),
                              BatchConfig(max_batch_size=4, max_wait_s=0.01))
            await batcher.start()
            first = WorkItem.make(1)
            batcher.submit(0, first)
            with pytest.raises(RuntimeError, match="executor blew up"):
                await asyncio.wait_for(first.future, 1.0)
            # the worker must have survived to serve the next item
            second = WorkItem.make(2)
            batcher.submit(0, second)
            with pytest.raises(RuntimeError):
                await asyncio.wait_for(second.future, 1.0)
            await batcher.stop()

        run(scenario())

    def test_submit_before_start_raises(self):
        async def scenario():
            batcher = Batcher(1, Recorder())
            with pytest.raises(RuntimeError, match="not started"):
                batcher.submit(0, WorkItem.make(1))
            await batcher.start()
            await batcher.stop()

        run(scenario())

    def test_stop_returns_undispatched_items(self):
        """Items stuck behind a close sentinel come back as dropped."""
        async def scenario():
            # executor that never finishes fast: block the worker so
            # items pile up behind an in-flight batch
            release = asyncio.Event()

            async def slow_execute(queue_id, items):
                await release.wait()
                for item in items:
                    if not item.future.done():
                        item.future.set_result(None)

            batcher = Batcher(1, slow_execute,
                              BatchConfig(max_batch_size=1, max_wait_s=0.0))
            await batcher.start()
            first = WorkItem.make("in-flight")
            batcher.submit(0, first)
            await asyncio.sleep(0.01)  # worker picks up `first`, blocks
            stop_task = asyncio.create_task(batcher.stop())
            await asyncio.sleep(0.01)  # stop enqueues its close sentinel
            stuck = WorkItem.make("stuck")  # lands behind the sentinel
            batcher.submit(0, stuck)
            release.set()
            dropped = await stop_task
            return [item.request for item in dropped], first.future.done()

        dropped, first_done = run(scenario())
        assert dropped == ["stuck"]
        assert first_done

    def test_stop_is_idempotent(self):
        async def scenario():
            batcher = Batcher(2, Recorder())
            await batcher.start()
            assert await batcher.stop() == []
            assert await batcher.stop() == []
            assert not batcher.started

        run(scenario())
