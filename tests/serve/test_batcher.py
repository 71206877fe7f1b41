"""Batcher: coalescing bounds, the batch window, shutdown draining."""

import asyncio
import contextvars
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


class TestDrain:
    """One drain task serves every queue; a batch that suspends holds
    its own queue only."""

    def test_one_task_for_all_queues(self):
        async def scenario():
            before = len(asyncio.all_tasks())
            batcher = Batcher(32, Recorder())
            await batcher.start()
            added = len(asyncio.all_tasks()) - before
            await batcher.stop()
            return added

        assert run(scenario()) == 1

    def test_waiting_batch_holds_only_its_queue(self):
        async def scenario():
            release = asyncio.Event()
            log = []

            async def execute(queue_id, items):
                log.append(("start", queue_id, [i.request for i in items]))
                if items[0].request == "q0-first":
                    await release.wait()
                for item in items:
                    item.future.set_result(item.request)
                log.append(("end", queue_id, [i.request for i in items]))

            batcher = Batcher(2, execute,
                              BatchConfig(max_batch_size=8, max_wait_s=5.0))
            await batcher.start()
            first = WorkItem.make("q0-first")
            batcher.submit(0, first)
            await asyncio.sleep(0.01)  # the first batch is waiting now
            second = WorkItem.make("q0-second")
            batcher.submit(0, second)
            other = WorkItem.make("q1")
            batcher.submit(1, other)
            assert await asyncio.wait_for(other.future, 1.0) == "q1"
            await asyncio.sleep(0.01)
            assert not first.future.done() and not second.future.done()
            release.set()
            await asyncio.wait_for(second.future, 1.0)
            await batcher.stop()
            return log

        log = run(scenario())
        assert log == [
            ("start", 0, ["q0-first"]),
            ("start", 1, ["q1"]),
            ("end", 1, ["q1"]),
            ("end", 0, ["q0-first"]),
            ("start", 0, ["q0-second"]),
            ("end", 0, ["q0-second"]),
        ]

    def test_executor_raising_after_suspending_fails_only_its_batch(self):
        async def scenario():
            async def execute(queue_id, items):
                await asyncio.sleep(0)
                if items[0].request == "bad":
                    raise RuntimeError("executor blew up")
                for item in items:
                    item.future.set_result(item.request)

            batcher = Batcher(2, execute,
                              BatchConfig(max_batch_size=4, max_wait_s=0.01))
            await batcher.start()
            bad, neighbour = WorkItem.make("bad"), WorkItem.make("other")
            batcher.submit(0, bad)
            batcher.submit(1, neighbour)
            with pytest.raises(RuntimeError, match="executor blew up"):
                await asyncio.wait_for(bad.future, 1.0)
            assert await asyncio.wait_for(neighbour.future, 1.0) == "other"
            after = WorkItem.make("after")
            batcher.submit(0, after)
            served = await asyncio.wait_for(after.future, 1.0)
            await batcher.stop()
            return served

        assert run(scenario()) == "after"

    def test_each_batch_runs_in_its_own_context(self):
        var = contextvars.ContextVar("batch", default="unset")

        async def scenario():
            go_on = asyncio.Event()
            seen = {}

            async def execute(queue_id, items):
                if queue_id == 0:
                    var.set("queue-0")
                    await go_on.wait()
                    seen[0] = var.get()
                else:
                    seen[1] = var.get()
                    go_on.set()
                for item in items:
                    item.future.set_result(None)

            batcher = Batcher(2, execute,
                              BatchConfig(max_batch_size=4, max_wait_s=0.01))
            await batcher.start()
            items = [WorkItem.make(0), WorkItem.make(1)]
            batcher.submit(0, items[0])
            await asyncio.sleep(0.01)  # queue 0's executor has suspended
            batcher.submit(1, items[1])
            await asyncio.wait_for(
                asyncio.gather(*(i.future for i in items)), 1.0)
            await batcher.stop()
            return seen, var.get()

        seen, outside = run(scenario())
        assert seen == {0: "queue-0", 1: "unset"}
        assert outside == "unset"
