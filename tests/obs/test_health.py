"""SLO burn-rate engine and hash-quality drift detection."""

import math

import pytest

from repro.obs import Journal, MetricsRegistry
from repro.obs.health import (
    DEFAULT_DRIFT_BANDS,
    FAST_BURN_THRESHOLD,
    SLOW_BURN_THRESHOLD,
    DriftBand,
    HashQualityDetector,
    SloEngine,
    SloSpec,
    default_slos,
    strict_bands,
)


def make_registry():
    return MetricsRegistry(enabled=True)


class TestSloSpec:
    def test_ratio_constructor(self):
        spec = SloSpec.ratio("rejects", bad="serve.rejected",
                             total="serve.requests", objective=0.95)
        assert spec.kind == "ratio"
        assert spec.total == ("serve.requests",)
        assert spec.budget == pytest.approx(0.05)

    def test_ratio_total_may_sum_counters(self):
        spec = SloSpec.ratio("hits", bad="m", total=("h", "m"),
                             objective=0.5)
        assert spec.total == ("h", "m")

    def test_latency_constructor(self):
        spec = SloSpec.latency("p99", metric="serve.latency_s",
                               threshold_s=0.05, objective=0.99)
        assert spec.kind == "latency"
        assert spec.threshold_s == 0.05

    @pytest.mark.parametrize("kwargs", [
        dict(name="x", description="", objective=1.0, kind="ratio",
             bad="b", total=("t",)),
        dict(name="x", description="", objective=0.9, kind="ratio"),
        dict(name="x", description="", objective=0.9, kind="latency",
             metric="m"),
        dict(name="x", description="", objective=0.9, kind="latency",
             metric="m", threshold_s=0.0),
        dict(name="x", description="", objective=0.9, kind="nope"),
    ])
    def test_invalid_specs_raise(self, kwargs):
        with pytest.raises(ValueError):
            SloSpec(**kwargs)


class TestRatioBurn:
    def spec(self):
        return SloSpec.ratio("rejects", bad="serve.rejected",
                             total="serve.requests", objective=0.9)

    def test_burn_is_bad_fraction_over_budget(self):
        registry = make_registry()
        registry.counter("serve.requests").inc(100)
        registry.counter("serve.rejected").inc(20)
        engine = SloEngine([self.spec()], registry=registry,
                           journal=Journal())
        (status,) = engine.evaluate()
        # 20% bad over a 10% budget = burn 2.0 on both windows.
        assert status.fast_burn == pytest.approx(2.0)
        assert status.slow_burn == pytest.approx(2.0)
        assert not status.alerting

    def test_fast_window_is_delta_since_last_evaluate(self):
        registry = make_registry()
        requests = registry.counter("serve.requests")
        rejected = registry.counter("serve.rejected")
        requests.inc(100)
        engine = SloEngine([self.spec()], registry=registry,
                           journal=Journal())
        engine.evaluate()
        requests.inc(100)
        rejected.inc(100)  # everything since the last evaluation is bad
        (status,) = engine.evaluate()
        assert status.fast_bad == pytest.approx(100)
        assert status.fast_total == pytest.approx(100)
        assert status.fast_burn == pytest.approx(10.0)
        # Slow window is lifetime: 100 bad of 200 total.
        assert status.slow_burn == pytest.approx(5.0)
        # Burn 10 pages nothing (fast threshold 14.4) but tickets
        # (slow threshold 3.0): the multi-window split in action.
        assert not status.fast_alert
        assert status.slow_alert

    def test_no_traffic_means_zero_burn(self):
        engine = SloEngine([self.spec()], registry=make_registry(),
                           journal=Journal())
        (status,) = engine.evaluate()
        assert status.fast_burn == status.slow_burn == 0.0

    def test_label_subset_matching_sums_series(self):
        registry = make_registry()
        registry.counter("serve.requests", scheme="pmod", op="get").inc(50)
        registry.counter("serve.requests", scheme="pmod", op="put").inc(50)
        registry.counter("serve.rejected", scheme="pmod",
                         reason="queue").inc(30)
        engine = SloEngine([self.spec()], registry=registry,
                           journal=Journal())
        (status,) = engine.evaluate()
        assert status.slow_total == pytest.approx(100)
        assert status.slow_bad == pytest.approx(30)


class TestThresholds:
    def test_fast_page_fires_at_threshold(self):
        registry = make_registry()
        spec = SloSpec.ratio("r", bad="bad", total="total", objective=0.99)
        bad, total = registry.counter("bad"), registry.counter("total")
        engine = SloEngine([spec], registry=registry, journal=Journal())
        total.inc(10000)  # good history keeps the slow burn low
        engine.evaluate()
        total.inc(100)
        bad.inc(14)  # 14% bad: fast burn 14.0, under the threshold
        (status,) = engine.evaluate()
        assert not status.fast_alert and not status.slow_alert
        total.inc(100)
        bad.inc(15)  # 15% bad: fast burn 15.0, slow burn ~0.3
        (status,) = engine.evaluate()
        assert status.fast_alert and not status.slow_alert
        (alert,) = engine.active_alerts()
        assert alert.window == "fast"
        assert alert.severity == "page"

    def test_default_thresholds_are_srep_multiwindow(self):
        assert FAST_BURN_THRESHOLD == 14.4
        assert SLOW_BURN_THRESHOLD == 3.0

    def test_alerts_are_edge_triggered_onto_journal(self):
        registry = make_registry()
        journal = Journal()
        spec = SloSpec.ratio("r", bad="bad", total="total", objective=0.99)
        bad, total = registry.counter("bad"), registry.counter("total")
        engine = SloEngine([spec], registry=registry, journal=journal)
        total.inc(10000)  # good history keeps the slow window quiet
        engine.evaluate()
        total.inc(10)
        bad.inc(10)
        engine.evaluate()  # fast window 100% bad: fires once
        engine.evaluate()  # fast window empty (delta 0): resolves
        total.inc(1000)  # all-good traffic: stays resolved
        engine.evaluate()
        fired = journal.find("health.alert_fired")
        resolved = journal.find("health.alert_resolved")
        assert len(fired) == 1
        assert fired[0].fields["slo"] == "r"
        assert len(resolved) == 1
        assert registry.counter("health.alerts").value == 1

    def test_burn_gauges_published_per_window(self):
        registry = make_registry()
        spec = SloSpec.ratio("r", bad="bad", total="total", objective=0.9)
        engine = SloEngine([spec], registry=registry, journal=Journal())
        engine.evaluate()
        windows = {g.labels["window"]
                   for g in registry.matching("health.burn_rate", slo="r")}
        assert windows == {"fast", "slow"}


class TestLatencySlo:
    def spec(self, threshold_s=0.1, objective=0.9):
        return SloSpec.latency("lat", metric="serve.latency_s",
                               threshold_s=threshold_s, objective=objective)

    def test_fast_window_counts_threshold_crossings_exactly(self):
        registry = make_registry()
        histogram = registry.histogram("serve.latency_s")
        for value in (0.01, 0.01, 0.5, 0.5, 0.5):  # 3 of 5 bad
            histogram.observe(value)
        engine = SloEngine([self.spec()], registry=registry,
                           journal=Journal())
        (status,) = engine.evaluate()
        assert status.fast_bad == 3
        assert status.fast_total == 5
        assert status.fast_burn == pytest.approx(6.0)

    def test_slow_window_accumulates_across_evaluations(self):
        registry = make_registry()
        histogram = registry.histogram("serve.latency_s")
        engine = SloEngine([self.spec()], registry=registry,
                           journal=Journal())
        for _ in range(4):
            histogram.observe(0.5)  # all bad
        engine.evaluate()
        for _ in range(4):
            histogram.observe(0.5)
        (status,) = engine.evaluate()
        assert status.slow_total == pytest.approx(8)
        assert status.slow_bad == pytest.approx(8)

    def test_duplicate_slo_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SloEngine([self.spec(), self.spec()],
                      registry=make_registry(), journal=Journal())


class TestDefaultSlos:
    def test_covers_serving_and_engine_cache(self):
        names = {spec.name for spec in default_slos()}
        assert names == {"serve-p99-latency", "serve-reject-rate",
                         "engine-cache-hit-ratio"}

    def test_all_evaluate_cleanly_on_empty_registry(self):
        engine = SloEngine(default_slos(), registry=make_registry(),
                           journal=Journal())
        statuses = engine.evaluate()
        assert len(statuses) == 3
        assert not any(s.alerting for s in statuses)


class TestDriftBands:
    def test_traditional_is_unmonitored_by_default(self):
        band = DEFAULT_DRIFT_BANDS["traditional"]
        assert math.isinf(band.balance_max)

    def test_prime_schemes_hold_near_ideal_band(self):
        for scheme in ("pmod", "pdisp"):
            assert DEFAULT_DRIFT_BANDS[scheme].balance_max == 1.5

    def test_strict_bands_cover_every_scheme(self):
        bands = strict_bands(64)
        assert set(bands) == set(DEFAULT_DRIFT_BANDS)
        for band in bands.values():
            assert band.balance_max == 1.5
            assert band.concentration_max == 16.0


class TestHashQualityDetector:
    def test_grade_inside_band_is_ok(self):
        detector = HashQualityDetector(strict_bands(64),
                                       registry=make_registry(),
                                       journal=Journal())
        status = detector.grade("pmod", balance=1.01, concentration=2.0)
        assert status.ok
        assert detector.tripped() == []

    def test_grade_outside_band_trips_and_journals(self):
        registry = make_registry()
        journal = Journal()
        detector = HashQualityDetector(strict_bands(64), registry=registry,
                                       journal=journal)
        status = detector.grade("traditional", balance=63.6,
                                concentration=63.0)
        assert not status.ok
        assert [s.scheme for s in detector.tripped()] == ["traditional"]
        (event,) = journal.find("health.drift_tripped")
        assert event.fields["scheme"] == "traditional"
        assert registry.counter("health.drift.trips").value == 1
        ok_gauge = registry.gauge("health.drift.ok", scheme="traditional")
        assert ok_gauge.value == 0.0

    def test_recovery_is_edge_triggered(self):
        journal = Journal()
        detector = HashQualityDetector(strict_bands(64),
                                       registry=make_registry(),
                                       journal=journal)
        detector.grade("pmod", balance=50.0, concentration=0.0)
        detector.grade("pmod", balance=50.0, concentration=0.0)
        detector.grade("pmod", balance=1.0, concentration=0.0)
        assert len(journal.find("health.drift_tripped")) == 1
        assert len(journal.find("health.drift_recovered")) == 1
        assert detector.tripped() == []

    def test_nan_is_not_drift(self):
        detector = HashQualityDetector(strict_bands(64),
                                       registry=make_registry(),
                                       journal=Journal())
        status = detector.grade("pmod", balance=math.nan,
                                concentration=math.nan)
        assert status.ok

    def test_unknown_scheme_is_unmonitored(self):
        detector = HashQualityDetector({}, registry=make_registry(),
                                       journal=Journal())
        assert detector.grade("mystery", balance=1e9,
                              concentration=1e9).ok

    def test_evaluate_reads_store_gauges_by_scheme(self):
        registry = make_registry()
        for scheme, balance in (("traditional", 63.6), ("pmod", 1.0)):
            registry.gauge("store.balance", scheme=scheme).set(balance)
            registry.gauge("store.concentration", scheme=scheme).set(1.0)
        detector = HashQualityDetector(strict_bands(64), registry=registry,
                                       journal=Journal())
        statuses = {s.scheme: s for s in detector.evaluate()}
        assert not statuses["traditional"].ok
        assert statuses["pmod"].ok

    def test_as_dict_maps_inf_to_none(self):
        detector = HashQualityDetector(registry=make_registry(),
                                       journal=Journal())
        row = detector.grade("traditional", balance=99.0,
                             concentration=99.0).as_dict()
        assert row["balance_max"] is None
        assert row["ok"] is True  # unmonitored: inside the infinite band
