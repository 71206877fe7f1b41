"""Sink round-trips: JSON snapshot and rendered tables."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    SNAPSHOT_SCHEMA_VERSION,
    TraceCollector,
    metrics_snapshot,
    metrics_table,
    validate_snapshot,
    write_snapshot,
)


def _populated():
    registry = MetricsRegistry()
    registry.counter("engine.cache.hits").inc(7)
    registry.counter("store.requests", scheme="pmod").inc(100)
    registry.gauge("store.balance", scheme="pmod").set(1.02)
    histogram = registry.histogram("store.op.latency_s", op="get")
    for value in (0.001, 0.002, 0.004):
        histogram.observe(value)
    collector = TraceCollector()
    with collector.span("experiment", experiment="demo"):
        with collector.span("replay", scheme="pmod"):
            pass
    return registry, collector


class TestJsonSnapshot:
    def test_snapshot_validates(self):
        registry, collector = _populated()
        snapshot = metrics_snapshot(registry, collector)
        validate_snapshot(snapshot)
        assert snapshot["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert snapshot["generated_unix_s"] > 0

    def test_file_round_trip(self, tmp_path):
        registry, collector = _populated()
        path = write_snapshot(tmp_path / "m.json", registry, collector)
        loaded = json.loads(path.read_text())
        validate_snapshot(loaded)
        counters = {c["name"]: c["value"]
                    for c in loaded["metrics"]["counters"]}
        assert counters["engine.cache.hits"] == 7
        assert [s["name"] for s in loaded["spans"]] == ["experiment",
                                                        "replay"]

    def test_nan_serializes_as_null(self, tmp_path):
        registry = MetricsRegistry()
        registry.histogram("empty")  # NaN percentiles
        registry.gauge("idle.balance").set(float("nan"))
        path = write_snapshot(tmp_path / "m.json", registry)
        loaded = json.loads(path.read_text())  # strict JSON must parse
        assert loaded["metrics"]["histograms"][0]["p50"] is None
        assert loaded["metrics"]["gauges"][0]["value"] is None

    def test_validate_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing keys"):
            validate_snapshot({"schema_version": SNAPSHOT_SCHEMA_VERSION})

    def test_validate_rejects_wrong_version(self):
        registry, collector = _populated()
        snapshot = metrics_snapshot(registry, collector)
        snapshot["schema_version"] = 999
        with pytest.raises(ValueError, match="schema v999"):
            validate_snapshot(snapshot)

    def test_validate_rejects_malformed_histogram(self):
        registry, collector = _populated()
        snapshot = metrics_snapshot(registry, collector)
        del snapshot["metrics"]["histograms"][0]["p95"]
        with pytest.raises(ValueError, match="missing fields"):
            validate_snapshot(snapshot)


class TestTables:
    def test_tables_render_all_kinds(self):
        registry, _ = _populated()
        text = metrics_table(registry)
        assert "engine.cache.hits" in text
        assert "scheme=pmod" in text
        assert "store.op.latency_s" in text
        assert "p95" in text

    def test_empty_registry_message(self):
        assert metrics_table(MetricsRegistry()) == "(no metrics recorded)"
