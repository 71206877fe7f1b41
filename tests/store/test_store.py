"""ShardedStore: routing, operations, telemetry correctness."""

import math

import numpy as np
import pytest

from repro.hashing import balance, concentration_from_sets
from repro.store import ShardedStore, make_selector
from repro.store.engine import DEFAULT_TELEMETRY_WINDOW


class TestOperations:
    def test_put_get_delete_round_trip(self):
        store = ShardedStore(n_shards=8, scheme="pmod", shard_capacity=32)
        store.put("user:1", {"name": "ada"})
        assert store.get("user:1") == {"name": "ada"}
        assert store.contains("user:1")
        assert store.delete("user:1") is True
        assert store.get("user:1") is None

    def test_int_and_str_keys_coexist(self):
        store = ShardedStore(n_shards=8, shard_capacity=32)
        store.put(42, "int")
        store.put("42", "str")
        assert store.get(42) == "int"
        assert store.get("42") == "str"

    def test_len_and_capacity(self):
        store = ShardedStore(n_shards=8, scheme="traditional",
                             shard_capacity=16)
        for k in range(10):
            store.put(k, k)
        assert len(store) == 10
        assert store.capacity == 8 * 16

    def test_routing_is_deterministic(self):
        store = ShardedStore(n_shards=16, scheme="xor")
        assert store.shard_for("k") == store.shard_for("k")
        assert store.shard_for("k") == make_selector("xor", 16).shard("k")

    def test_pmod_store_has_prime_shard_count(self):
        store = ShardedStore(n_shards=64, scheme="pmod")
        assert store.n_shards == 61
        assert len(store.shards) == 61

    def test_eviction_bounds_total_occupancy(self):
        store = ShardedStore(n_shards=4, scheme="traditional",
                             shard_capacity=8)
        for k in range(1000):
            store.put(k, k)
        assert len(store) <= store.capacity == 32


class TestTelemetry:
    def test_balance_nan_before_traffic(self):
        assert math.isnan(ShardedStore(n_shards=8).balance())

    def test_balance_matches_analysis_layer(self):
        """Served balance == vectorized analysis balance on the same keys."""
        store = ShardedStore(n_shards=64, scheme="pmod", shard_capacity=64)
        keys = np.arange(0, 4096 * 64, 64, dtype=np.uint64)
        for k in keys:
            store.put(int(k), 0)
        expected = balance(store.routing.indexing, keys)
        assert store.balance() == pytest.approx(expected)

    def test_concentration_matches_analysis_layer(self):
        store = ShardedStore(n_shards=16, scheme="traditional")
        keys = [k * 2 for k in range(500)]
        for k in keys:
            store.get(k)
        expected = concentration_from_sets(
            store.routing.shard_array(np.array(keys, dtype=np.uint64)),
            store.n_shards,
        )
        assert store.concentration() == pytest.approx(expected)

    def test_telemetry_snapshot_counts(self):
        store = ShardedStore(n_shards=8, scheme="xor", shard_capacity=16)
        for k in range(20):
            store.put(k, k)
        for k in range(20):
            store.get(k)
        t = store.telemetry()
        assert t.accesses == 40
        assert t.gets == 20
        assert t.scheme == "xor"
        assert t.n_shards == 8
        assert sum(t.shard_accesses) == 40
        assert 0.0 <= t.hit_rate <= 1.0
        assert t.occupancy == len(store)

    def test_telemetry_as_dict_is_json_shaped(self):
        import json

        store = ShardedStore(n_shards=8)
        store.put(1, 1)
        payload = store.telemetry().as_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_tail_load_collapsed_vs_spread(self):
        collapsed = ShardedStore(n_shards=16, scheme="traditional")
        spread = ShardedStore(n_shards=16, scheme="pmod")
        for k in range(0, 16 * 200, 16):  # stride = shard count
            collapsed.get(k)
            spread.get(k)
        assert collapsed.telemetry().tail_load == pytest.approx(16.0)
        assert spread.telemetry().tail_load < 2.0

    def test_telemetry_window_bounds_memory(self):
        store = ShardedStore(n_shards=8)
        for k in range(DEFAULT_TELEMETRY_WINDOW + 1000):
            store.get(k)
        assert len(store._window) == DEFAULT_TELEMETRY_WINDOW
