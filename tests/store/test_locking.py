"""The store's lock discipline: shard locks only, a lock-free window."""

import sys
import threading

import pytest

from repro.cache.replacement import LRUPolicy
from repro.store import Shard, ShardedStore, make_traffic, replay


class TestConcurrentReaders:
    def test_threaded_replay_beside_telemetry_readers(self):
        """Four replay workers on a hot-key stream while a reader thread
        loops concentration() and telemetry(): nothing raises, every
        request is counted, and each shard's occupancy counter matches
        what it holds, which a lost update on a shard would break.  Two
        small shards and a 1 µs switch interval make the workers
        collide inside the same shard's ops."""
        store = ShardedStore(n_shards=2, scheme="traditional",
                             shard_capacity=16)
        requests = make_traffic("zipfian", 40000, n_keys=1024, alpha=1.3,
                                seed=3)
        rounds = 3
        stop = threading.Event()
        errors = []
        reads = []

        def read():
            try:
                while not stop.is_set():
                    store.concentration()
                    reads.append(store.telemetry().accesses)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        reader = threading.Thread(target=read, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader.start()
            for _ in range(rounds):
                report = replay(store, requests, workers=4)
        finally:
            stop.set()
            reader.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        assert errors == []
        assert reads
        assert report.telemetry.accesses == rounds * len(requests)
        assert report.telemetry.evictions > 0
        for shard in store.shards:
            assert shard.occupancy == len(shard.items())


class _PolicyFailure(Exception):
    pass


def _raise_on_hit(self, set_index, way):
    raise _PolicyFailure(f"on_hit({set_index}, {way})")


class TestLockRelease:
    @pytest.mark.parametrize("op", ["get", "put"])
    def test_raising_policy_releases_the_shard_lock(self, monkeypatch, op):
        """A hit whose policy update raises propagates the error and
        leaves the lock free, so the shard keeps serving."""
        monkeypatch.setattr(LRUPolicy, "on_hit", _raise_on_hit)
        shard = Shard(capacity=16, assoc=4, replacement="lru")
        assert shard.put(1, "one") is None  # a fill, not a hit
        with pytest.raises(_PolicyFailure):
            if op == "get":
                shard.get(1)
            else:
                shard.put(1, "uno")
        assert not shard.lock.locked()
        assert shard.put(2, "two") is None
        assert shard.contains(2)
        assert shard.delete(2)
        assert len(shard) == len(shard.items()) == 1
