"""Metrics federation: scraping over the fabric, merge semantics,
and the unchanged health layer on the merged registry."""

import math

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.cluster.interconnect import make_fabric
from repro.cluster.node import NodeDownError
from repro.obs import Journal, declare_core_metrics
from repro.obs.fed import Aggregator, Federation, Scraper
from repro.obs.health import SloEngine, SloSpec
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.sketch import QuantileSketch


class FakeNode:
    """Duck-typed scrape target with a controllable snapshot."""

    def __init__(self, name, doc=None, version=1):
        self.name = name
        self.version = version
        self.doc = doc or {"metrics": {"counters": [], "gauges": [],
                                       "histograms": []}}
        self.down = False

    def metrics_snapshot(self):
        if self.down:
            raise NodeDownError(f"{self.name} is down")
        doc = dict(self.doc)
        doc["fed"] = {"node": self.name, "version": self.version,
                      "state": "up"}
        return doc


def _counter_row(name, value, **labels):
    return {"name": name, "labels": labels, "value": value}


def _gauge_row(name, value, **labels):
    return {"name": name, "labels": labels, "value": value}


def _sketch_row(name, values, **labels):
    sketch = QuantileSketch()
    for v in values:
        sketch.add(v)
    return {"name": name, "labels": labels, "count": len(values),
            "sum": float(sum(values)), "min": min(values),
            "max": max(values), "sketch": sketch.as_dict()}


def _doc(counters=(), gauges=(), histograms=()):
    return {"metrics": {"counters": list(counters),
                        "gauges": list(gauges),
                        "histograms": list(histograms)}}


class TestScraper:
    def test_out_of_band_scrape_collects_every_target(self):
        nodes = [FakeNode(f"n{i}") for i in range(3)]
        scraper = Scraper([(n.name, n) for n in nodes],
                          registry=MetricsRegistry(enabled=True))
        results = scraper.scrape(now_s=1.0)
        assert all(r.ok for r in results)
        assert scraper.scrapes == 3
        assert set(scraper.latest) == {"n0", "n1", "n2"}

    def test_down_node_is_a_journaled_miss(self):
        node = FakeNode("n0")
        node.down = True
        journal = Journal()
        scraper = Scraper([("n0", node)], journal=journal,
                          registry=MetricsRegistry(enabled=True))
        (result,) = scraper.scrape()
        assert not result.ok
        assert result.reason == "NodeDownError"
        (event,) = journal.find("obs.scrape_miss")
        assert event.fields["endpoint"] == "n0"
        assert scraper.misses == 1

    def test_miss_keeps_previous_snapshot(self):
        node = FakeNode("n0")
        scraper = Scraper([("n0", node)],
                          registry=MetricsRegistry(enabled=True))
        scraper.scrape(now_s=1.0)
        node.down = True
        scraper.scrape(now_s=2.0)
        doc, arrival = scraper.latest["n0"]
        assert arrival == 1.0  # the stale-but-present snapshot

    def test_stale_version_rejected(self):
        node = FakeNode("n0", version=5)
        journal = Journal()
        scraper = Scraper([("n0", node)], journal=journal,
                          registry=MetricsRegistry(enabled=True))
        scraper.scrape(now_s=1.0)
        # The exporter re-delivers the same version: not merged again.
        (result,) = scraper.scrape(now_s=2.0)
        assert not result.ok and result.reason == "stale_version"
        node.version = 6
        (result,) = scraper.scrape(now_s=3.0)
        assert result.ok

    def test_fabric_scrape_charges_links_and_advances_arrival(self):
        fabric = make_fabric("star", 2)
        node = FakeNode("node0")
        scraper = Scraper([("node0", node)], fabric=fabric,
                          source_endpoint="frontend",
                          registry=MetricsRegistry(enabled=True))
        (result,) = scraper.scrape(now_s=0.0)
        assert result.ok
        assert result.arrival_s > 0.0  # round trip took virtual time
        assert scraper.scrape_busy_s  # serialization was attributed
        assert 0.0 < scraper.scrape_utilization(1.0) < 1.0

    def test_utilization_zero_before_any_scrape(self):
        scraper = Scraper([], registry=MetricsRegistry(enabled=True))
        assert scraper.scrape_utilization(10.0) == 0.0


class TestAggregator:
    def test_counters_sum_by_identity(self):
        docs = [
            _doc(counters=[_counter_row("ops", 10, node="a")]),
            _doc(counters=[_counter_row("ops", 5, node="a"),
                           _counter_row("ops", 7, node="b")]),
        ]
        merged = Aggregator().merge(docs)
        (a,) = merged.matching("ops", node="a")
        (b,) = merged.matching("ops", node="b")
        assert a.value == 15
        assert b.value == 7

    def test_gauge_policies_max_min_last(self):
        docs = [
            _doc(gauges=[_gauge_row("store.balance", 1.2),
                         _gauge_row("store.hit_rate", 0.9),
                         _gauge_row("custom.gauge", 1.0)]),
            _doc(gauges=[_gauge_row("store.balance", 1.5),
                         _gauge_row("store.hit_rate", 0.4),
                         _gauge_row("custom.gauge", 2.0)]),
        ]
        merged = Aggregator().merge(docs)
        assert merged.matching("store.balance")[0].value == 1.5  # max
        assert merged.matching("store.hit_rate")[0].value == 0.4  # min
        assert merged.matching("custom.gauge")[0].value == 2.0  # last

    def test_last_gauge_policy_keeps_the_freshest_snapshot(self):
        """``last`` is the freshest snapshot, not the alphabetically
        last endpoint: a node whose exporter went down still merges
        its stale snapshot, which loses to a fresher one."""
        node0 = FakeNode("node0", _doc(gauges=[
            _gauge_row("custom.gauge", 1.0)]))
        node1 = FakeNode("node1", _doc(gauges=[
            _gauge_row("custom.gauge", 2.0)]))
        fed = Federation(
            Scraper([("node0", node0), ("node1", node1)],
                    registry=MetricsRegistry(enabled=True)),
            registry=MetricsRegistry(enabled=True))
        fed.collect(now_s=0.0)
        node1.down = True
        node0.doc = _doc(gauges=[_gauge_row("custom.gauge", 5.0)])
        node0.version = 2
        merged = fed.collect(now_s=10.0)
        assert merged.matching("custom.gauge")[0].value == 5.0

    def test_sketch_histograms_merge_exactly(self):
        rng = np.random.default_rng(0)
        left = rng.lognormal(-9, 0.5, 3000)
        right = rng.lognormal(-8.5, 0.5, 3000)
        docs = [_doc(histograms=[_sketch_row("lat", list(left))]),
                _doc(histograms=[_sketch_row("lat", list(right))])]
        merged = Aggregator().merge(docs)
        (hist,) = merged.matching("lat")
        pooled = np.concatenate([left, right])
        exact = float(np.percentile(pooled, 99))
        assert abs(hist.percentile(99) - exact) / exact <= 0.02
        assert hist.count == 6000
        assert len(hist.window_values()) == 6000

    def test_sketchless_histograms_merge_conservatively(self):
        """A windowed-only row has nothing to merge: it stays local
        (absent from the merge), while the same documents' counters
        and gauges still merge."""
        docs = [
            _doc(counters=[_counter_row("ops", 10)],
                 gauges=[_gauge_row("store.balance", 1.2)],
                 histograms=[{"name": "lat", "labels": {}, "count": 10,
                              "sum": 1.0, "min": 0.05, "max": 0.2,
                              "p50": 0.1, "p95": 0.15, "p99": 0.2}]),
            _doc(counters=[_counter_row("ops", 5)],
                 gauges=[_gauge_row("store.balance", 1.5)],
                 histograms=[{"name": "lat", "labels": {}, "count": 5,
                              "sum": 2.0, "min": 0.01, "max": 0.9,
                              "p50": 0.4, "p95": 0.8, "p99": 0.9}]),
        ]
        merged = Aggregator().merge(docs)
        assert merged.matching("lat") == []
        assert merged.histograms() == []
        assert merged.matching("ops")[0].value == 15
        assert merged.matching("store.balance")[0].value == 1.5


class TestMergedHistogram:
    """The Aggregator's merged series: a Histogram holding the summed
    sketch and no raw window."""

    def test_summary_shape_matches_histogram_row(self):
        merged = Aggregator().merge(
            [_doc(histograms=[_sketch_row("lat", [0.1, 0.2, 0.3])])])
        (hist,) = merged.matching("lat")
        assert isinstance(hist, Histogram)
        row = hist.as_dict()
        for key in ("name", "labels", "count", "sum", "min", "max",
                    "mean", "p50", "p95", "p99", "exemplars"):
            assert key in row
        assert "sketch" in row  # merges again downstream
        assert row["count"] == 3 and row["exemplars"] == []

    def test_empty_summary_is_nan(self):
        empty = {"name": "lat", "labels": {}, "count": 0, "sum": 0.0,
                 "min": math.nan, "max": math.nan,
                 "sketch": QuantileSketch().as_dict()}
        (hist,) = Aggregator().merge([_doc(histograms=[empty])]).matching(
            "lat")
        summary = hist.summary()
        assert summary["count"] == 0
        assert math.isnan(summary["min"])
        assert math.isnan(summary["p99"])
        assert hist.window_values() == []


class TestFederationOnCluster:
    @pytest.fixture(scope="class")
    def served_cluster(self):
        cluster = Cluster(n_nodes=4, node_scheme="pmod",
                          shard_scheme="pmod", node_registries=True)
        for i in range(1500):
            cluster.put(f"k{i}", i)
            cluster.get(f"k{i // 2}")
        return cluster

    def test_merged_p99_matches_exact_pool(self, served_cluster):
        local = MetricsRegistry(enabled=True)
        declare_core_metrics(local)
        fed = Federation.for_cluster(served_cluster, registry=local)
        fed.collect(served_cluster.virtual_now_s)
        exact = float(np.percentile(
            np.asarray(served_cluster._latencies, dtype=float), 99))
        got = fed.quantile("cluster.node.request_latency_s", 99)
        assert abs(got - exact) / exact <= 0.02

    def test_collect_publishes_staleness_and_fed_counters(
            self, served_cluster):
        local = MetricsRegistry(enabled=True)
        declare_core_metrics(local)
        fed = Federation.for_cluster(served_cluster, registry=local)
        fed.collect(served_cluster.virtual_now_s)
        # pMod fragments 4 physical nodes down to the prime ring of 3.
        ring = len(served_cluster.nodes)
        assert ring == 3
        assert local.counter("fed.merges").value == 1
        # A same-instant sweep can tail-drop on the shared frontend
        # link — that's the fabric doing its job, not a test failure.
        scrapes = local.counter("fed.scrapes").value
        misses = local.counter("fed.scrape_misses").value
        assert scrapes + misses == ring
        assert scrapes >= ring - 1
        staleness = [g for g in local.matching("fed.node.staleness_s")
                     if "node" in g.labels]  # skip the declared stub
        assert len(staleness) == scrapes
        assert all(g.value >= 0.0 for g in staleness)

    def test_slo_engine_runs_unchanged_on_merged_registry(
            self, served_cluster):
        local = MetricsRegistry(enabled=True)
        declare_core_metrics(local)
        fed = Federation.for_cluster(served_cluster, registry=local)
        merged = fed.collect(served_cluster.virtual_now_s)
        spec = SloSpec.latency("p99", "cluster.node.request_latency_s",
                               threshold_s=10.0, objective=0.99)
        engine = SloEngine([spec], registry=merged)
        (status,) = engine.evaluate()
        assert not status.alerting  # nothing is over a 10s threshold
        assert status.fast_burn == 0.0

    def test_scrape_payload_sketches_only_the_latency_series(
            self, served_cluster):
        """The scrape wire format: only ``cluster.node.request_latency_s``
        rows carry a sketch payload; every other histogram row ships
        its windowed summary alone."""
        for node in served_cluster.nodes:
            rows = node.metrics_snapshot()["metrics"]["histograms"]
            sketched = [row for row in rows if "sketch" in row]
            assert sketched
            assert {row["name"] for row in sketched} == {
                "cluster.node.request_latency_s"}
            assert len(rows) > len(sketched)

    def test_quantile_before_collect_raises(self, served_cluster):
        fed = Federation.for_cluster(
            served_cluster, registry=MetricsRegistry(enabled=True))
        with pytest.raises(RuntimeError, match="collect"):
            fed.quantile("cluster.node.request_latency_s", 99)

    def test_unknown_sketch_series_raises(self, served_cluster):
        local = MetricsRegistry(enabled=True)
        fed = Federation.for_cluster(served_cluster, registry=local)
        fed.collect(served_cluster.virtual_now_s)
        with pytest.raises(KeyError, match="no sketch-backed series"):
            fed.quantile("no.such.series", 99)

    def test_node_without_registry_is_scrape_error(self):
        cluster = Cluster(n_nodes=4, node_scheme="pmod",
                          shard_scheme="pmod")  # no node_registries
        with pytest.raises(RuntimeError, match="node_registries"):
            cluster.nodes[0].metrics_snapshot()

    def test_rebind_preserves_engine_state(self, served_cluster):
        local = MetricsRegistry(enabled=True)
        declare_core_metrics(local)
        fed = Federation.for_cluster(served_cluster, registry=local)
        merged = fed.collect(served_cluster.virtual_now_s)
        spec = SloSpec.latency("p99", "cluster.node.request_latency_s",
                               threshold_s=10.0, objective=0.99)
        engine = SloEngine([spec], registry=merged)
        engine.evaluate()
        evaluations = engine.evaluations
        remerged = fed.collect(served_cluster.virtual_now_s + 1.0)
        assert engine.rebind(remerged) is engine
        engine.evaluate()
        assert engine.evaluations == evaluations + 1
