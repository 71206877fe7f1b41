"""Quantile sketches: accuracy, exact merge, registry parity."""

import json
import math

import numpy as np
import pytest

from repro.obs import declare_core_metrics
from repro.obs.registry import DEFAULT_HISTOGRAM_WINDOW, MetricsRegistry
from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch


def _lognormal(n, seed=0):
    return np.random.default_rng(seed).lognormal(mean=-9.0, sigma=0.6,
                                                 size=n)


def _exact_percentile(values, p):
    return float(np.percentile(np.asarray(values, dtype=float), p))


class TestAccuracy:
    @pytest.mark.parametrize("p", [50, 90, 95, 99])
    def test_relative_error_within_guarantee(self, p):
        values = _lognormal(20000)
        sketch = QuantileSketch()
        for v in values:
            sketch.add(v)
        exact = _exact_percentile(values, p)
        got = sketch.percentile(p)
        # The drill's budget is 2%; the sketch is built at 1%.
        assert abs(got - exact) / exact <= 0.02

    def test_accuracy_holds_on_heavy_tail(self):
        rng = np.random.default_rng(7)
        values = rng.pareto(1.5, size=20000) + 1e-6
        sketch = QuantileSketch()
        for v in values:
            sketch.add(v)
        for p in (50, 99):
            exact = _exact_percentile(values, p)
            assert abs(sketch.percentile(p) - exact) / exact <= 0.02

    def test_min_max_count_total_are_exact(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0]
        sketch = QuantileSketch()
        for v in values:
            sketch.add(v)
        assert sketch.count == len(sketch) == 5
        assert sketch.min == 1.0
        assert sketch.max == 9.0
        assert sketch.total == pytest.approx(sum(values))


class TestMerge:
    def test_merge_is_exact_vs_single_stream(self):
        values = _lognormal(10000, seed=3)
        whole = QuantileSketch()
        left, right = QuantileSketch(), QuantileSketch()
        for i, v in enumerate(values):
            whole.add(v)
            (left if i % 2 else right).add(v)
        merged = QuantileSketch.merged([left, right])
        for p in (50, 95, 99):
            assert merged.percentile(p) == whole.percentile(p)
        assert merged.count == whole.count
        assert merged.total == pytest.approx(whole.total)

    def test_merge_in_place_returns_self(self):
        a, b = QuantileSketch(), QuantileSketch()
        a.add(1.0)
        b.add(2.0)
        assert a.merge(b) is a
        assert a.count == 2

    def test_merge_rejects_mismatched_accuracy(self):
        a = QuantileSketch(relative_accuracy=0.01)
        b = QuantileSketch(relative_accuracy=0.05)
        with pytest.raises(ValueError, match="accuracy"):
            a.merge(b)

    def test_merged_of_empty_list_is_empty_sketch(self):
        merged = QuantileSketch.merged([])
        assert len(merged) == 0
        assert math.isnan(merged.quantile(0.5))


class TestTransport:
    def test_dict_round_trip_is_lossless(self):
        sketch = QuantileSketch()
        for v in _lognormal(5000, seed=5):
            sketch.add(v)
        sketch.add(0.0)  # exercise the zero bucket
        clone = QuantileSketch.from_dict(
            json.loads(json.dumps(sketch.as_dict())))
        for p in (50, 95, 99):
            assert clone.percentile(p) == sketch.percentile(p)
        assert clone.count == sketch.count
        assert clone.min == sketch.min
        assert clone.max == sketch.max

    def test_empty_round_trip(self):
        clone = QuantileSketch.from_dict(QuantileSketch().as_dict())
        assert len(clone) == 0
        assert clone.min is None or math.isnan(clone.quantile(0.5))

    def test_reconstruct_matches_distribution(self):
        sketch = QuantileSketch()
        values = _lognormal(4000, seed=9)
        for v in values:
            sketch.add(v)
        rebuilt = sketch.reconstruct()
        assert len(rebuilt) == len(values)
        exact = _exact_percentile(values, 99)
        assert abs(_exact_percentile(rebuilt, 99) - exact) / exact <= 0.03


class TestEdges:
    def test_empty_quantile_is_nan(self):
        assert math.isnan(QuantileSketch().quantile(0.99))

    def test_zero_and_negative_land_in_zero_bucket(self):
        sketch = QuantileSketch()
        sketch.add(0.0)
        sketch.add(-1.0)
        sketch.add(1.0)
        assert sketch.quantile(0.0) == 0.0
        assert sketch.count == 3

    def test_single_value(self):
        sketch = QuantileSketch()
        sketch.add(0.125)
        got = sketch.quantile(0.5)
        assert abs(got - 0.125) / 0.125 <= DEFAULT_RELATIVE_ACCURACY


class TestSketchHistogramParity:
    """The registry's sketch=True path vs the windowed histogram."""

    def test_histogram_requires_sketch_flag(self):
        registry = MetricsRegistry(enabled=True)
        hist = registry.histogram("h", sketch=True)
        assert hist.sketch is not None
        assert hist.kind == "histogram"
        # A plain request on the same series returns the sketch one.
        assert registry.histogram("h") is hist

    def test_plain_then_sketch_is_a_kind_conflict(self):
        registry = MetricsRegistry(enabled=True)
        registry.histogram("h")
        with pytest.raises(TypeError, match="already registered"):
            registry.histogram("h", sketch=True)

    def test_single_node_parity_with_windowed_histogram(self):
        registry = MetricsRegistry(enabled=True)
        plain = registry.histogram("plain")
        sketched = registry.histogram("sketched", sketch=True)
        values = _lognormal(2000, seed=11)
        for v in values:
            plain.observe(v)
            sketched.observe(v)
        for p in (50, 95, 99):
            windowed = plain.percentile(p)
            assert (abs(sketched.sketch.percentile(p) - windowed)
                    / windowed <= 0.02)
        assert sketched.count == plain.count == len(values)

    def test_snapshot_row_carries_sketch_payload(self):
        registry = MetricsRegistry(enabled=True)
        sketched = registry.histogram("s", sketch=True)
        sketched.observe(0.01)
        row = sketched.as_dict()
        assert "sketch" in row
        clone = QuantileSketch.from_dict(row["sketch"])
        assert clone.count == 1

    def test_declared_sketch_metrics_exist(self):
        registry = MetricsRegistry(enabled=True)
        declare_core_metrics(registry)
        (series,) = registry.matching("cluster.node.request_latency_s")
        assert series.sketch is not None


class TestWindowBoundaryContinuity:
    """Quantiles must not jump across a window eviction (satellite:
    interleave observations across exactly one eviction and hold p99
    continuous for both the windowed and the sketch path)."""

    def test_p99_continuous_across_one_eviction(self):
        window = DEFAULT_HISTOGRAM_WINDOW
        registry = MetricsRegistry(enabled=True)
        hist = registry.histogram("lat", sketch=True)
        values = _lognormal(window + 8, seed=13)
        for v in values[:window]:
            hist.observe(v)
        assert len(hist.window_values()) == window
        prev_window_p99 = hist.percentile(99)
        prev_sketch_p99 = hist.sketch.percentile(99)
        # Cross the boundary one observation at a time: each step
        # evicts exactly one value, so both views see a 1-element
        # perturbation of a stationary stream.
        for v in values[window:]:
            hist.observe(v)
            assert len(hist.window_values()) == window  # one in, one out
            window_p99 = hist.percentile(99)
            sketch_p99 = hist.sketch.percentile(99)
            assert (abs(window_p99 - prev_window_p99)
                    / prev_window_p99 <= 0.25)
            assert (abs(sketch_p99 - prev_sketch_p99)
                    / prev_sketch_p99 <= 0.05)
            prev_window_p99, prev_sketch_p99 = window_p99, sketch_p99

    def test_sketch_keeps_evicted_tail_the_window_forgets(self):
        window = DEFAULT_HISTOGRAM_WINDOW
        registry = MetricsRegistry(enabled=True)
        hist = registry.histogram("lat", sketch=True)
        hist.observe(10.0)  # a spike the window will forget
        for _ in range(window):
            hist.observe(0.001)
        assert hist.percentile(100) == 0.001  # windowed view forgot
        assert hist.sketch.max == 10.0  # lifetime sketch remembers
        assert hist.max == 10.0
