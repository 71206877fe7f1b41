"""Registry semantics: counters, gauges, histograms, labels, off path."""

import math
import threading

import pytest

from repro.obs import NULL, MetricsRegistry, get_registry, set_registry
from repro.obs.registry import DEFAULT_HISTOGRAM_WINDOW


class TestCounters:
    def test_counts_and_snapshot(self):
        registry = MetricsRegistry()
        counter = registry.counter("engine.cache.hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.snapshot()["counters"] == [
            {"name": "engine.cache.hits", "labels": {}, "value": 5}
        ]

    def test_get_or_create_returns_same_series(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry.counters()) == 1

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("a")


class TestLabels:
    def test_distinct_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("store.requests", scheme="pmod").inc()
        registry.counter("store.requests", scheme="xor").inc(2)
        values = {
            tuple(sorted(c.labels.items())): c.value
            for c in registry.counters()
        }
        assert values == {(("scheme", "pmod"),): 1, (("scheme", "xor"),): 2}

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.gauge("g", shard=1, scheme="pmod")
        b = registry.gauge("g", scheme="pmod", shard=1)
        assert a is b


class TestGauges:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("store.occupancy")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13


class TestHistograms:
    def test_summary_statistics(self):
        histogram = MetricsRegistry().histogram("lat")
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(10.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["p50"] == 2.0
        assert summary["p99"] == 4.0

    def test_percentiles_use_bounded_window(self):
        histogram = MetricsRegistry().histogram("lat")
        n = DEFAULT_HISTOGRAM_WINDOW + 1000
        for value in range(n):
            histogram.observe(float(value))
        # lifetime stats see everything...
        assert histogram.count == n
        assert histogram.min == 0.0
        # ...percentiles only the last window of observations
        # (1000..n-1)
        assert histogram.percentile(0) == 1000.0
        assert histogram.percentile(50) >= 1000.0
        assert histogram.summary()["window"] == DEFAULT_HISTOGRAM_WINDOW

    def test_empty_histogram_is_nan_not_crash(self):
        summary = MetricsRegistry().histogram("lat").summary()
        assert math.isnan(summary["p50"])
        assert math.isnan(summary["mean"])

    def test_default_window(self):
        histogram = MetricsRegistry().histogram("lat")
        assert histogram.window == DEFAULT_HISTOGRAM_WINDOW

    def test_percentile_ordering(self):
        histogram = MetricsRegistry().histogram("lat")
        for value in range(100):
            histogram.observe(float(value))
        s = histogram.summary()
        assert s["p50"] <= s["p95"] <= s["p99"] <= s["max"]


class TestDisabledRegistry:
    def test_off_path_adds_no_entries(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("a").inc()
        registry.gauge("b", scheme="pmod").set(1.0)
        registry.histogram("c").observe(0.5)
        assert len(registry) == 0
        assert registry.snapshot() == {
            "counters": [], "gauges": [], "histograms": []
        }

    def test_disabled_instruments_are_the_shared_null(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is NULL
        assert registry.gauge("b") is NULL
        assert registry.histogram("c") is NULL

    def test_enable_disable_roundtrip(self):
        registry = MetricsRegistry(enabled=False)
        registry.enable()
        registry.counter("a").inc()
        registry.disable()
        registry.counter("b").inc()
        assert [c.name for c in registry.counters()] == ["a"]


class TestGlobalRegistry:
    def test_default_global_is_disabled(self):
        assert get_registry().enabled is False

    def test_set_registry_swaps_and_returns_previous(self):
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            assert get_registry() is mine
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestThreadSafety:
    def test_concurrent_get_or_create_single_series(self):
        registry = MetricsRegistry()
        seen = []

        def worker():
            counter = registry.counter("shared")
            seen.append(counter)
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(map(id, seen))) == 1
        assert len(registry.counters()) == 1
