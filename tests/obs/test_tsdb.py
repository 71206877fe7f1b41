"""The embedded time-series store: retention, downsampling, in-memory
bookkeeping, and the query API."""

import math

import numpy as np
import pytest

from repro.obs import Journal
from repro.obs.registry import MetricsRegistry
from repro.obs.sketch import QuantileSketch
from repro.obs.tsdb import Point, TimeSeriesStore


def _store(**kwargs):
    kwargs.setdefault("retention_points", 16)
    kwargs.setdefault("downsample_ratio", 4)
    kwargs.setdefault("registry", MetricsRegistry(enabled=True))
    return TimeSeriesStore(**kwargs)


class TestAppend:
    def test_append_and_range(self):
        ts = _store()
        for t in range(10):
            ts.append("g", float(t), t * 2.0)
        points = ts.range("g")
        assert len(points) == 10
        assert [p.t_s for p in points] == [float(t) for t in range(10)]
        assert ts.range("g", 3.0, 6.0)[0].value == 6.0
        assert len(ts.range("g", 3.0, 6.0)) == 3  # t in [3, 6)

    def test_out_of_order_append_rejected(self):
        ts = _store()
        ts.append("g", 5.0, 1.0)
        with pytest.raises(ValueError, match="append-only"):
            ts.append("g", 4.0, 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            _store().append("g", 0.0, 1.0, kind="whatever")

    def test_sketch_accepts_dict_payload(self):
        sketch = QuantileSketch()
        sketch.add(0.5)
        ts = _store()
        ts.append("s", 0.0, sketch.as_dict(), kind="sketch")
        (point,) = ts.range("s")
        assert isinstance(point.value, QuantileSketch)
        assert point.value.count == 1

    def test_appends_counted_on_registry(self):
        registry = MetricsRegistry(enabled=True)
        ts = _store(registry=registry)
        ts.append("g", 0.0, 1.0)
        ts.append("g", 1.0, 2.0)
        assert registry.counter("fed.tsdb.appends").value == 2
        assert ts.appends == 2


class TestRetentionAndDownsampling:
    def test_raw_tier_is_bounded(self):
        ts = _store(retention_points=16, downsample_ratio=4)
        for t in range(200):
            ts.append("g", float(t), float(t))
        raw = [p for p in ts.range("g") if p.span == 1]
        assert 0 < len(raw) <= 16
        assert ts.evictions > 0

    def test_gauge_blocks_age_to_mean(self):
        ts = _store(retention_points=4, downsample_ratio=4)
        for t in range(8):  # first block [0..3] ages out
            ts.append("g", float(t), float(t))
        aged = [p for p in ts.range("g") if p.span > 1]
        assert len(aged) == 1
        assert aged[0].value == pytest.approx((0 + 1 + 2 + 3) / 4)
        assert aged[0].span == 4

    def test_counter_blocks_age_to_rate(self):
        ts = _store(retention_points=4, downsample_ratio=4)
        for t in range(8):  # cumulative counter growing 10/tick
            ts.append("c", float(t), t * 10.0, kind="counter")
        (aged,) = [p for p in ts.range("c") if p.span > 1]
        # The block [0..3] keeps its last cumulative sample.
        assert (aged.kind, aged.t_s, aged.value, aged.span) == (
            "counter", 3.0, 30.0, 4)
        assert ts.rate("c") == pytest.approx(10.0)  # d(value)/d(t)

    def test_increment_between_aged_blocks_is_kept(self):
        ts = _store(retention_points=4, downsample_ratio=4)
        # Flat within every 4-sample block; the total steps by 100
        # between blocks: 0 x4, 100 x8, 200 x8.
        for t in range(20):
            total = 0.0 if t < 4 else 100.0 * (1 + (t - 4) // 8)
            ts.append("c", float(t), total, kind="counter")
        aged_t = [p.t_s for p in ts.range("c") if p.span > 1]
        assert len(aged_t) == 4
        # Over the aged tier alone: 200 counted between the first
        # block's last sample (t=3) and the fourth's (t=15).
        got = ts.rate("c", -math.inf, max(aged_t) + 0.5)
        assert got == pytest.approx(200.0 / 12.0)

    def test_sketch_blocks_age_by_merge(self):
        ts = _store(retention_points=4, downsample_ratio=4)
        values = np.random.default_rng(0).lognormal(-9, 0.5, 8 * 100)
        for block in range(8):
            sketch = QuantileSketch()
            for v in values[block * 100:(block + 1) * 100]:
                sketch.add(v)
            ts.append("s", float(block), sketch, kind="sketch")
        aged = [p for p in ts.range("s") if p.span > 1]
        assert aged and aged[0].value.count == 400  # 4 sketches merged

    def test_evictions_journaled(self):
        journal = Journal()
        ts = _store(retention_points=4, downsample_ratio=4,
                    journal=journal)
        for t in range(8):
            ts.append("g", float(t), 1.0)
        (event,) = journal.find("obs.tsdb_evict")
        assert event.fields["series"] == "g"
        assert event.fields["points"] == 4
        assert ts.evictions == 1

    def test_quantile_spans_both_tiers(self):
        ts = _store(retention_points=8, downsample_ratio=4)
        rng = np.random.default_rng(1)
        all_values = []
        for block in range(6):
            sketch = QuantileSketch()
            chunk = rng.lognormal(-9, 0.5, 200)
            all_values.extend(chunk)
            for v in chunk:
                sketch.add(v)
            ts.append("s", float(block), sketch, kind="sketch")
        exact = float(np.percentile(np.asarray(all_values), 99))
        got = ts.quantile("s", 99)
        assert abs(got - exact) / exact <= 0.02

    def test_rate_over_raw_window(self):
        ts = _store(retention_points=32, downsample_ratio=4)
        for t in range(10):
            ts.append("c", float(t), t * 7.0, kind="counter")
        assert ts.rate("c") == pytest.approx(7.0)

    def test_rate_falls_back_to_block_rates(self):
        ts = _store(retention_points=4, downsample_ratio=4)
        for t in range(20):
            ts.append("c", float(t), t * 3.0, kind="counter")
        # Restrict the window to the downsampled tier only.
        aged_t = [p.t_s for p in ts.range("c") if p.span > 1]
        got = ts.rate("c", -math.inf, max(aged_t) + 0.5)
        assert got == pytest.approx(3.0)


class TestQueries:
    def test_empty_queries(self):
        ts = _store()
        assert ts.range("nothing") == []
        assert ts.rate("nothing") == 0.0
        assert math.isnan(ts.quantile("nothing", 99))

    def test_series_names_sorted(self):
        ts = _store()
        ts.append("b", 0.0, 1.0)
        ts.append("a", 0.0, 1.0)
        assert ts.series_names() == ["a", "b"]


class TestPersistence:
    """What the store keeps is exactly what was appended, in memory."""

    def test_jsonl_round_trip_is_lossless(self):
        ts = _store(retention_points=8, downsample_ratio=4)
        for t in range(30):
            ts.append("g", float(t), float(t % 5))
            ts.append("c", float(t), t * 2.0, kind="counter")
        sketch = QuantileSketch()
        sketch.add(0.25)
        ts.append("s", 100.0, sketch, kind="sketch")
        # Every appended sample is summarized by exactly one point.
        spans = {name: sum(p.span for p in ts.range(name))
                 for name in ts.series_names()}
        assert spans == {"c": 30, "g": 30, "s": 1}
        assert ts.appends == 61

    def test_compaction_bounds_file_size(self):
        ts = _store(retention_points=8, downsample_ratio=4)
        for t in range(500):
            ts.append("g", float(t), 1.0)
        points = ts.range("g")
        raw = [p for p in points if p.span == 1]
        aged = [p for p in points if p.span > 1]
        assert 0 < len(raw) <= 8
        assert len(aged) == ts.evictions > 0

    def test_open_missing_directory_is_empty(self):
        ts = _store()
        assert ts.series_names() == []
        assert len(ts) == 0
        assert ts.range("g") == []

    def test_series_name_sanitized_for_filesystem(self):
        ts = _store()
        ts.append("weird/series:name", 0.0, 1.0)
        assert ts.series_names() == ["weird/series:name"]
        assert len(ts.range("weird/series:name")) == 1

    def test_memory_only_without_root(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ts = _store(retention_points=4, downsample_ratio=4)
        for t in range(20):
            ts.append("g", float(t), 1.0)
        assert ts.evictions > 0
        assert list(tmp_path.iterdir()) == []


class TestValidation:
    def test_retention_floor(self):
        with pytest.raises(ValueError, match="retention_points"):
            TimeSeriesStore(retention_points=1)

    def test_ratio_floor(self):
        with pytest.raises(ValueError, match="downsample_ratio"):
            TimeSeriesStore(downsample_ratio=1)

    def test_point_repr_and_dict(self):
        point = Point(1.5, 2.0, "gauge")
        assert point.as_dict() == {"t_s": 1.5, "value": 2.0,
                                   "kind": "gauge", "span": 1}
        assert "gauge" in repr(point)
