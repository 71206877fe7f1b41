"""Fault policy, injection, and graceful degradation under a stall."""

import asyncio

import pytest

from repro.serve import (
    AdmissionConfig,
    BatchConfig,
    FaultInjector,
    FaultPolicy,
    Frontend,
    InjectedFault,
)
from repro.serve.faults import (
    BACKOFF_BASE_S,
    BACKOFF_CAP_S,
    BACKOFF_MULTIPLIER,
)
from repro.store import ShardedStore


def run(coro):
    return asyncio.run(coro)


class TestFaultPolicy:
    def test_backoff_schedule_is_capped_exponential(self):
        assert (BACKOFF_BASE_S, BACKOFF_MULTIPLIER, BACKOFF_CAP_S) == (
            0.005, 2.0, 0.1)
        policy = FaultPolicy()
        assert policy.backoff_s(1) == pytest.approx(0.005)
        assert policy.backoff_s(2) == pytest.approx(0.01)
        assert policy.backoff_s(3) == pytest.approx(0.02)
        assert policy.backoff_s(4) == pytest.approx(0.04)
        assert policy.backoff_s(5) == pytest.approx(0.08)
        assert policy.backoff_s(6) == pytest.approx(0.1)  # capped
        assert policy.backoff_s(10) == pytest.approx(0.1)
        assert policy.backoff_s(0) == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"timeout_s": 0.0}, {"max_retries": -1},
    ])
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPolicy(**kwargs)


class TestFaultInjector:
    def test_stall_and_recover_targeting(self):
        injector = FaultInjector(stall_s=0.0)
        injector.stall(3).stall(5)
        assert injector.stalled_shards == {3, 5}
        injector.recover(3)
        assert injector.stalled_shards == {5}
        injector.recover()
        assert injector.stalled_shards == set()

    def test_error_injection_is_seeded(self):
        async def draws(seed):
            injector = FaultInjector(error_probability=0.5, seed=seed)
            outcomes = []
            for _ in range(50):
                try:
                    await injector.before_batch(0)
                    outcomes.append(False)
                except InjectedFault:
                    outcomes.append(True)
            return outcomes

        a = run(draws(7))
        b = run(draws(7))
        c = run(draws(8))
        assert a == b
        assert a != c
        assert any(a) and not all(a)

    def test_injected_counts_tracked(self):
        async def scenario():
            injector = FaultInjector(error_probability=1.0, stall_s=0.0)
            injector.stall(0)
            with pytest.raises(InjectedFault):
                await injector.before_batch(0)
            return injector.stats()

        stats = run(scenario())
        assert stats["stall"] == 1
        assert stats["error"] == 1

    @pytest.mark.parametrize("kwargs", [
        {"delay_probability": 1.5}, {"error_probability": -0.1},
        {"delay_s": -1.0}, {"stall_s": -1.0},
    ])
    def test_invalid_injector_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultInjector(**kwargs)


class TestRetries:
    def test_transient_stall_is_retried_to_success(self):
        """A stall that clears before the retry budget runs out ends ok.

        The first attempt times out behind the stalled batch; the shard
        recovers while the worker is still sleeping off that stall, so
        a later retry lands on a healthy shard and succeeds."""
        async def scenario():
            store = ShardedStore(n_shards=8, scheme="pmod",
                                 shard_capacity=64)
            injector = FaultInjector(stall_s=0.15)
            shard = store.shard_for(42)
            injector.stall(shard)
            frontend = Frontend(
                store,
                batch=BatchConfig(max_batch_size=4, max_wait_s=0.0),
                policy=FaultPolicy(timeout_s=0.1, max_retries=3),
                injector=injector)
            async with frontend:
                task = asyncio.create_task(frontend.put(42, "v"))
                await asyncio.sleep(0.05)
                injector.recover(shard)  # transient fault clears
                response = await task
            return response

        response = run(scenario())
        assert response.ok
        assert response.retries >= 1

    def test_persistent_error_exhausts_retries(self):
        async def scenario():
            store = ShardedStore(n_shards=8, scheme="pmod",
                                 shard_capacity=64)
            injector = FaultInjector(error_probability=1.0)
            frontend = Frontend(
                store,
                batch=BatchConfig(max_batch_size=4, max_wait_s=0.0),
                policy=FaultPolicy(timeout_s=0.5, max_retries=2),
                injector=injector)
            async with frontend:
                response = await frontend.put(1, "v")
                stats = frontend.stats()
            return response, stats

        response, stats = run(scenario())
        assert response.status == "error"
        assert response.retries == 2
        assert "InjectedFault" in response.reason
        assert stats["retries"] == 2
        assert stats["errors"] == 1


class TestGracefulDegradation:
    def test_stalled_shard_degrades_gracefully(self):
        """The acceptance scenario: with one shard stalled far beyond
        the request timeout, healthy-shard traffic is served ok,
        stalled-shard traffic resolves as explicit timeouts (or
        rejects once the queue cap bites), every request is accounted
        for, the in-flight count never exceeds the cap, and the whole
        run finishes — no hang."""
        n_requests = 200
        cap = 64

        async def scenario():
            store = ShardedStore(n_shards=16, scheme="pmod",
                                 shard_capacity=256)
            stalled_key = 0
            stalled_shard = store.shard_for(stalled_key)
            # every batch on the stalled shard sleeps 4x the timeout,
            # so from a client's view the shard is hung
            injector = FaultInjector(stall_s=0.2)
            injector.stall(stalled_shard)
            frontend = Frontend(
                store,
                batch=BatchConfig(max_batch_size=8, max_wait_s=0.001),
                admission=AdmissionConfig(max_queue_depth=cap),
                policy=FaultPolicy(timeout_s=0.05, max_retries=1),
                injector=injector)
            healthy_keys = [k for k in range(1, 200)
                            if store.shard_for(k) != stalled_shard]
            async with frontend:
                jobs = []
                for i in range(n_requests):
                    if i % 10 == 0:  # a slice of traffic hits the stall
                        jobs.append(asyncio.ensure_future(
                            frontend.put(stalled_key, i)))
                    else:
                        key = healthy_keys[i % len(healthy_keys)]
                        jobs.append(asyncio.ensure_future(
                            frontend.put(key, i)))
                    await asyncio.sleep(0.0005)  # paced, not one stampede
                responses = await asyncio.wait_for(
                    asyncio.gather(*jobs), timeout=30.0)  # no-hang bound
                stats = frontend.stats()
            final_depth = frontend.queue_depth
            return responses, stats, final_depth, stalled_shard, store

        responses, stats, final_depth, stalled_shard, store = run(scenario())
        # every request accounted for, none silently dropped
        assert len(responses) == n_requests
        assert stats["dropped"] == 0
        by_status = {}
        for response in responses:
            by_status[response.status] = by_status.get(response.status,
                                                       0) + 1
        assert sum(by_status.values()) == n_requests
        # stalled-shard requests fail *explicitly*
        stalled = [r for r in responses
                   if store.shard_for(r.key) == stalled_shard]
        assert stalled
        assert all(r.status in ("timeout", "rejected") for r in stalled)
        assert any(r.status == "timeout" for r in stalled)
        # healthy shards keep serving
        healthy = [r for r in responses
                   if store.shard_for(r.key) != stalled_shard]
        assert healthy
        ok_healthy = sum(r.ok for r in healthy)
        assert ok_healthy / len(healthy) > 0.5
        # the queue stayed bounded throughout and drained by shutdown
        assert stats["peak_queue_depth"] <= cap
        assert final_depth == 0

    def test_probabilistic_delays_do_not_break_accounting(self):
        async def scenario():
            store = ShardedStore(n_shards=8, scheme="xor",
                                 shard_capacity=128)
            injector = FaultInjector(delay_probability=0.3, delay_s=0.002,
                                     seed=1)
            frontend = Frontend(
                store,
                batch=BatchConfig(max_batch_size=8, max_wait_s=0.001),
                policy=FaultPolicy(timeout_s=1.0, max_retries=1),
                injector=injector)
            async with frontend:
                responses = await asyncio.gather(
                    *(frontend.put(i, i) for i in range(100)))
                stats = frontend.stats()
            return responses, stats

        responses, stats = run(scenario())
        assert all(r.ok for r in responses)
        assert stats["faults"]["delay"] > 0


def stalled_frontend(timeout_s, stall_s, *, max_retries=0,
                     max_batch_size=4, max_queue_depth=1024):
    """A frontend over 8 pmod shards with an injector (nothing stalled
    yet) whose batches take only what is already queued."""
    store = ShardedStore(n_shards=8, scheme="pmod", shard_capacity=64)
    injector = FaultInjector(stall_s=stall_s)
    frontend = Frontend(
        store,
        batch=BatchConfig(max_batch_size=max_batch_size, max_wait_s=0.0),
        admission=AdmissionConfig(max_queue_depth=max_queue_depth),
        policy=FaultPolicy(timeout_s=timeout_s, max_retries=max_retries),
        injector=injector)
    return frontend, store, injector


def keys_on(store, shard, count):
    return [key for key in range(4096)
            if store.shard_for(key) == shard][:count]


class TestDeadlineSweep:
    """One deadline deque and timer per frontend expire overdue
    attempts at their own deadlines."""

    def test_stalled_attempt_times_out_on_time(self):
        timeout = 0.1

        async def scenario():
            frontend, store, injector = stalled_frontend(timeout, 0.3)
            injector.stall(store.shard_for(7))
            async with frontend:
                return await frontend.get(7)

        response = run(scenario())
        assert response.status == "timeout"
        assert timeout <= response.latency_s <= timeout + 0.05

    def test_two_stalled_shards_expire_at_their_own_deadlines(self):
        timeout, gap = 0.1, 0.05

        async def scenario():
            frontend, store, injector = stalled_frontend(timeout, 0.3)
            first = 0
            second = next(key for key in range(1, 4096)
                          if store.shard_for(key) != store.shard_for(first))
            injector.stall(store.shard_for(first))
            injector.stall(store.shard_for(second))
            loop = asyncio.get_running_loop()
            async with frontend:
                began = loop.time()
                done = {}

                async def timed_get(key):
                    response = await frontend.get(key)
                    done[key] = loop.time() - began
                    return response

                a = asyncio.ensure_future(timed_get(first))
                await asyncio.sleep(gap)
                b = asyncio.ensure_future(timed_get(second))
                responses = await asyncio.gather(a, b)
            return responses, done[first], done[second]

        (a, b), a_done, b_done = run(scenario())
        assert a.status == b.status == "timeout"
        assert timeout <= a_done <= timeout + 0.05
        assert timeout + gap <= b_done <= timeout + gap + 0.05

    def test_retry_gets_a_fresh_deadline(self):
        timeout, backoff = 0.1, BACKOFF_BASE_S

        async def scenario():
            frontend, store, injector = stalled_frontend(
                timeout, 0.5, max_retries=1)
            injector.stall(store.shard_for(7))
            async with frontend:
                return await frontend.get(7)

        response = run(scenario())
        assert response.status == "timeout"
        assert response.retries == 1
        assert 2 * timeout + backoff <= response.latency_s \
            <= 2 * timeout + backoff + 0.05

    def test_abandoned_put_never_reaches_the_store(self):
        """A put queued behind a stalled batch expires; when its batch
        comes up the executor skips it."""
        async def scenario():
            frontend, store, injector = stalled_frontend(0.05, 0.2)
            shard = store.shard_for(0)
            blocker, victim = keys_on(store, shard, 2)
            injector.stall(shard)
            puts = []
            real_put = store.put

            def spy_put(key, value):
                puts.append(key)
                return real_put(key, value)

            store.put = spy_put
            async with frontend:
                stalled = asyncio.ensure_future(frontend.get(blocker))
                await asyncio.sleep(0.01)  # the get's batch is stalling
                response = await frontend.put(victim, "late")
                await stalled
            return response, puts, store.get(victim)

        response, puts, stored = run(scenario())
        assert response.status == "timeout"
        assert puts == []
        assert stored is None

    def test_stop_leaves_no_sweep_timer(self):
        async def scenario():
            frontend, store, injector = stalled_frontend(1.0, 0.0)
            async with frontend:
                response = await frontend.put(1, "v")
                timer = frontend._sweep_timer
                armed = timer is not None and not timer.cancelled()
            return response, armed, timer, frontend

        response, armed, timer, frontend = run(scenario())
        assert response.ok
        assert armed  # the settled put's deadline was still pending
        assert timer.cancelled()
        assert frontend._sweep_timer is None
        assert not frontend._deadlines


class TestInFlightCount:
    def test_executing_batch_counts_against_the_depth_cap(self):
        """``queue_depth`` is queued + executing: a batch sleeping in a
        shard stall still holds its admission slots."""
        async def scenario():
            frontend, store, injector = stalled_frontend(
                1.0, 0.2, max_batch_size=4, max_queue_depth=4)
            shard = store.shard_for(0)
            stalled_keys = keys_on(store, shard, 4)
            healthy = next(key for key in range(4096)
                           if store.shard_for(key) != shard)
            injector.stall(shard)
            async with frontend:
                gets = [asyncio.ensure_future(frontend.get(key))
                        for key in stalled_keys]
                await asyncio.sleep(0.05)
                depth = frontend.queue_depth
                fifth = await frontend.get(healthy)
                stalled = await asyncio.gather(*gets)
                drained = frontend.queue_depth
            return depth, fifth, stalled, drained

        depth, fifth, stalled, drained = run(scenario())
        assert depth == 4
        assert fifth.status == "rejected"
        assert fifth.reason == "queue_full"
        assert all(response.ok for response in stalled)
        assert drained == 0
