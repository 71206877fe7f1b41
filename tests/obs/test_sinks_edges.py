"""Sink edge cases: empty snapshot, label escaping, window eviction."""

import json

from repro.obs import MetricsRegistry
from repro.obs.registry import DEFAULT_HISTOGRAM_WINDOW
from repro.obs.sinks import metrics_snapshot, validate_snapshot, write_snapshot


def make_registry():
    return MetricsRegistry(enabled=True)


class TestEmptyRegistry:
    def test_snapshot_of_empty_registry_still_validates(self):
        snapshot = metrics_snapshot(make_registry())
        validate_snapshot(snapshot)
        assert snapshot["metrics"] == {"counters": [], "gauges": [],
                                       "histograms": []}


class TestLabelEscaping:
    def test_quote_backslash_and_newline_are_escaped(self, tmp_path):
        registry = make_registry()
        odd = 'C:\\tmp\\"x"\nnext'
        registry.counter("odd", path=odd).inc()
        text = write_snapshot(tmp_path / "snap.json", registry).read_text()
        assert '"path": "C:\\\\tmp\\\\\\"x\\"\\nnext"' in text
        (row,) = json.loads(text)["metrics"]["counters"]
        assert row["labels"] == {"path": odd}

    def test_plain_labels_are_untouched(self, tmp_path):
        registry = make_registry()
        registry.counter("serve.requests", scheme="pmod").inc(3)
        text = write_snapshot(tmp_path / "snap.json", registry).read_text()
        assert '"scheme": "pmod"' in text


class TestHistogramWindowEviction:
    def test_window_drops_oldest_at_boundary(self):
        registry = make_registry()
        histogram = registry.histogram("h")
        values = [float(v) for v in range(1, DEFAULT_HISTOGRAM_WINDOW + 1)]
        for value in values:
            histogram.observe(value)
        assert histogram.window_values() == values
        histogram.observe(0.5)  # boundary crossed: 1.0 evicted
        assert histogram.window_values() == values[1:] + [0.5]

    def test_lifetime_stats_survive_eviction(self):
        registry = make_registry()
        histogram = registry.histogram("h")
        histogram.observe(10.0)
        for _ in range(DEFAULT_HISTOGRAM_WINDOW):
            histogram.observe(1.0)
        # 10.0 left the window but lifetime count/sum/max keep it.
        summary = histogram.summary()
        assert summary["count"] == DEFAULT_HISTOGRAM_WINDOW + 1
        assert summary["sum"] == 10.0 + DEFAULT_HISTOGRAM_WINDOW
        assert summary["max"] == 10.0
        # Percentiles are windowed: the outlier no longer skews them.
        assert histogram.percentile(99) == 1.0

    def test_empty_histogram_serializes_nan_free(self):
        registry = make_registry()
        registry.histogram("empty")
        snapshot = metrics_snapshot(registry)
        (row,) = snapshot["metrics"]["histograms"]
        assert row["count"] == 0
        assert row["mean"] is None  # NaN became null-safe None
        validate_snapshot(snapshot)
