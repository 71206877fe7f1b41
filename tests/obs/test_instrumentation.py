"""The instrumented layers actually report: engine cache, store, driver."""

import numpy as np
import pytest

from repro.engine import ResultCache, RunConfig, SimulationKey, SimulationEngine
from repro.obs import MetricsRegistry, enable_observability, get_registry
from repro.store import ShardedStore, make_traffic, replay


def _key(tag="w"):
    return SimulationKey(workload=tag, scheme="pmod", scale=1.0, seed=0,
                         skew_replacement="enru", machine="fingerprint")


class TestResultCacheCounters:
    def test_corrupt_entry_counts_and_warns(self, tmp_path):
        enable_observability()
        cache = ResultCache(tmp_path)
        path = cache._path(_key(), ".json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ this is not json")
        with pytest.warns(RuntimeWarning, match="corrupt entry"):
            assert cache.get(_key()) is None
        assert cache.corrupt == 1
        assert not path.exists()  # discarded
        counters = {c.name: c.value for c in get_registry().counters()}
        assert counters["engine.cache.corrupt"] == 1
        assert counters["engine.cache.misses"] == 1

    def test_hit_miss_write_mirrored_to_registry(self, tmp_path):
        enable_observability()
        cache = ResultCache(tmp_path)
        key = _key()
        assert cache.get_payload(key) is None  # miss
        cache.put_payload(key, {"x": 1})       # write
        assert cache.get_payload(key) == {"x": 1}  # hit
        counters = {c.name: c.value for c in get_registry().counters()}
        assert counters["engine.cache.misses"] == 1
        assert counters["engine.cache.writes"] == 1
        assert counters["engine.cache.hits"] == 1
        assert cache.corrupt == 0

    def test_plain_miss_is_not_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(_key()) is None
        assert cache.corrupt == 0


class TestEngineSpans:
    def test_simulation_records_spans_and_counters(self):
        _, collector = enable_observability()
        engine = SimulationEngine(config=RunConfig(scale=0.05, seed=0))
        engine.result("tree", "pmod")
        counters = {c.name: c.value for c in get_registry().counters()}
        assert counters["engine.sim.runs"] == 1
        assert counters["engine.trace.builds"] == 1
        names = [row["name"] for row in collector.flat()]
        assert "simulate" in names
        assert "materialize" in names


class TestStoreInstruments:
    def test_per_shard_latency_and_occupancy_series(self):
        registry = MetricsRegistry()
        store = ShardedStore(n_shards=8, scheme="pmod", shard_capacity=64,
                             registry=registry)
        for i in range(200):
            store.put(i, i)
        for i in range(200):
            store.get(i)
        op_latency = {
            h.labels["op"]: h for h in registry.histograms()
            if h.name == "store.op.latency_s"
        }
        assert op_latency["get"].count == 200
        assert op_latency["put"].count == 200
        shard_latency = [h for h in registry.histograms()
                         if h.name == "store.shard.latency_s"]
        assert sum(h.count for h in shard_latency) == 400
        occupancy = [g for g in registry.gauges()
                     if g.name == "store.shard.occupancy"]
        assert sum(g.value for g in occupancy) == len(store)
        requests = [c for c in registry.counters()
                    if c.name == "store.requests"]
        assert requests[0].value == 400

    def test_telemetry_publishes_quality_gauges(self):
        registry = MetricsRegistry()
        store = ShardedStore(n_shards=8, scheme="pmod", shard_capacity=64,
                             registry=registry)
        for i in range(100):
            store.put(i, i)
        telemetry = store.telemetry()
        gauges = {g.name: g.value for g in registry.gauges()
                  if g.labels.get("scheme") == "pmod"}
        assert gauges["store.balance"] == pytest.approx(telemetry.balance)
        assert gauges["store.concentration"] == pytest.approx(
            telemetry.concentration)
        assert gauges["store.tail_load"] == pytest.approx(
            telemetry.tail_load)

    def test_disabled_registry_store_is_unobserved(self):
        registry = MetricsRegistry(enabled=False)
        store = ShardedStore(n_shards=8, scheme="pmod", shard_capacity=64,
                             registry=registry)
        for i in range(50):
            store.put(i, i)
        store.telemetry()
        assert len(registry) == 0


class TestDriverChunkTimes:
    def test_chunk_wall_times_per_worker(self):
        store = ShardedStore(n_shards=16, scheme="pmod", shard_capacity=64)
        requests = make_traffic("zipfian", 2000, seed=0)
        report = replay(store, requests, workers=4)
        assert len(report.chunk_wall_s) == 4
        assert all(t > 0 for t in report.chunk_wall_s)
        assert report.chunk_skew >= 1.0
        payload = report.as_dict()
        assert payload["chunk_wall_s"] == report.chunk_wall_s
        assert payload["chunk_skew"] == pytest.approx(report.chunk_skew)

    def test_serial_replay_is_one_chunk(self):
        store = ShardedStore(n_shards=16, scheme="pmod", shard_capacity=64)
        report = replay(store, make_traffic("zipfian", 500, seed=0),
                        workers=1)
        assert len(report.chunk_wall_s) == 1
        assert report.chunk_skew == pytest.approx(1.0)

    def test_chunk_histogram_lands_on_registry(self):
        enable_observability()
        store = ShardedStore(n_shards=16, scheme="pmod", shard_capacity=64)
        replay(store, make_traffic("zipfian", 1000, seed=0), workers=4)
        # the unlabeled series pre-declared at enable stays at zero;
        # the scheme-labeled series carries the four chunk times
        chunk_hist = [h for h in get_registry().histograms()
                      if h.name == "store.replay.chunk_s"]
        assert chunk_hist
        assert sum(h.count for h in chunk_hist) == 4
        labeled = [h for h in chunk_hist if h.labels.get("scheme") == "pmod"]
        assert labeled and labeled[0].count == 4


class TestFastsimOffPath:
    def test_disabled_registry_adds_nothing(self):
        from repro.cache.fastsim import simulate_misses
        from repro.hashing import PrimeModuloIndexing

        blocks = np.arange(1000, dtype=np.uint64)
        result = simulate_misses(PrimeModuloIndexing(64), blocks, 4)
        assert result.accesses == 1000
        assert len(get_registry()) == 0

    def test_enabled_registry_observes_call(self):
        from repro.cache.fastsim import simulate_misses
        from repro.hashing import PrimeModuloIndexing

        enable_observability()
        blocks = np.arange(1000, dtype=np.uint64)
        simulate_misses(PrimeModuloIndexing(64), blocks, 4)
        counters = {c.name: c.value for c in get_registry().counters()}
        assert counters["fastsim.calls"] == 1
        wall = [h for h in get_registry().histograms()
                if h.name == "fastsim.wall_s"]
        assert wall[0].count == 1
