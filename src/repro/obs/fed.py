"""`repro.obs.fed` — metrics federation: one cluster-wide registry.

Every observability surface below this module is per-process: each
cluster :class:`~repro.cluster.node.StoreNode` owns a private
:class:`~repro.obs.registry.MetricsRegistry` (build the cluster with
``node_registries=True``), and its quantiles describe only the ops it
served.  This module closes the gap in three moves:

1. a :class:`Scraper` pulls versioned snapshot documents from every
   node's ``metrics_snapshot()`` endpoint **over the cluster's own
   virtual-time fabric** — scrape traffic serializes onto the same
   links as data traffic, consumes the same queue budget, and can
   tail-drop like anything else (journaled ``obs.scrape_miss``);
2. an :class:`Aggregator` merges the per-node documents into one
   in-memory registry: counters by sum, gauges by a per-name
   max/min/last policy, sketch-backed histograms by exact sketch
   addition;
3. a :class:`Federation` facade runs scrape → merge on demand,
   publishes its own telemetry (``fed.*`` series, per-node staleness
   gauges), and hands the merged registry to the *unchanged* health
   layer — ``SloEngine``, ``HashQualityDetector`` and
   ``grade_adversary`` evaluate cluster-wide series exactly as they
   evaluate local ones, which is the whole point: pathologies that are
   statistical (skew, collisions — the birthday-paradox regime) are
   only visible in aggregate.

Merge semantics worth knowing:

* **Counters** with the same ``(name, labels)`` identity sum across
  nodes — a cluster-wide rate is the sum of per-node rates.
* **Gauges** follow :data:`GAUGE_POLICIES`: worst-case-wins (``max``)
  for imbalance/concentration/queue-depth style gauges, ``min`` for
  hit rates, freshest-snapshot-wins (``last``) otherwise —
  :meth:`Federation.collect` hands the documents over by arrival time,
  oldest first.
* **Histograms** carrying a sketch merge *exactly*: the merged series
  is a :class:`~repro.obs.registry.Histogram` holding the sum of the
  rows' sketches, whose quantiles equal the sketch of the
  concatenated stream, within the sketch's relative accuracy.  Rows
  without a sketch (windowed-only series) have nothing to merge and
  stay local — latency SLOs that must alert on federated data use
  sketch-kind series.
"""

from __future__ import annotations

import json
import math
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.journal import Journal, get_journal
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.sketch import QuantileSketch

__all__ = [
    "Aggregator",
    "Federation",
    "GAUGE_POLICIES",
    "ScrapeResult",
    "Scraper",
    "SCRAPE_REQUEST_BYTES",
]

#: Wire size of a scrape request (a GET to the metrics endpoint).
SCRAPE_REQUEST_BYTES = 64

#: Gauge merge policy by series name; unlisted names default to
#: ``"last"`` (the freshest node's value wins).  Worst-case-wins for
#: the quality gauges the drift detector thresholds — a cluster is as
#: imbalanced as its most imbalanced member — and ``min`` for hit
#: rates, where the weakest node is the operational story.
GAUGE_POLICIES: Dict[str, str] = {
    "store.balance": "max",
    "store.concentration": "max",
    "store.tail_load": "max",
    "store.hit_rate": "min",
    "cluster.node_balance": "max",
    "cluster.link.utilization": "max",
    "serve.queue_depth": "max",
    "health.burn_rate": "max",
}

_LabelKey = Tuple[str, Tuple[Tuple[str, Any], ...]]


def _identity(row: Mapping[str, Any]) -> _LabelKey:
    return row["name"], tuple(sorted(row.get("labels", {}).items()))


class ScrapeResult:
    """Outcome of one scrape attempt against one node."""

    __slots__ = ("endpoint", "ok", "reason", "doc", "arrival_s")

    def __init__(self, endpoint: str, ok: bool, reason: str = "",
                 doc: Optional[Dict[str, Any]] = None,
                 arrival_s: float = math.nan):
        self.endpoint = endpoint
        self.ok = ok
        self.reason = reason
        self.doc = doc
        self.arrival_s = arrival_s

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"miss:{self.reason}"
        return f"ScrapeResult({self.endpoint!r}, {state})"


class Scraper:
    """Pulls metrics snapshots from scrape targets over a fabric.

    Args:
        fabric: the cluster's :class:`~repro.cluster.interconnect.Fabric`
            — scrapes are fabric round trips from ``source_endpoint``
            and pay serialization, propagation, and queueing like data
            traffic; None models an out-of-band telemetry network
            (scrapes always arrive, cost nothing).
        targets: ``(endpoint_name, source)`` pairs where ``source``
            exposes ``metrics_snapshot()`` (StoreNode, Frontend, or
            anything duck-typing them).
        source_endpoint: fabric endpoint the scraper sits at.
        registry: where the scraper's own ``fed.*`` telemetry lands
            (default: the process-wide registry).
        journal: sink for ``obs.scrape_miss`` events.
    """

    def __init__(self, targets: Sequence[Tuple[str, Any]],
                 fabric: Optional[Any] = None,
                 source_endpoint: str = "frontend",
                 registry: Optional[MetricsRegistry] = None,
                 journal: Optional[Journal] = None,
                 request_bytes: int = SCRAPE_REQUEST_BYTES):
        self.targets = list(targets)
        self.fabric = fabric
        self.source_endpoint = source_endpoint
        self._registry = registry
        self._journal = journal
        self.request_bytes = request_bytes
        #: endpoint -> (doc, arrival_s) of the last successful scrape;
        #: a miss leaves the previous snapshot in place (stale beats
        #: absent — the staleness gauge carries the caveat).
        self.latest: Dict[str, Tuple[Dict[str, Any], float]] = {}
        #: endpoint -> highest snapshot version accepted (stale
        #: re-deliveries are dropped, not merged backwards).
        self._versions: Dict[str, int] = {}
        #: link name -> virtual seconds of scrape serialization pushed
        #: through it (the <3%-of-capacity overhead accounting).
        self.scrape_busy_s: Dict[str, float] = {}
        self.scrapes = 0
        self.misses = 0

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    @property
    def journal(self) -> Journal:
        return self._journal if self._journal is not None else get_journal()

    def _charge(self, src: str, dst: str, n_bytes: int) -> None:
        """Attribute one leg's serialization cost to its links."""
        if self.fabric is None or src == dst:
            return
        for link in self.fabric.path(src, dst):
            self.scrape_busy_s[link.name] = (
                self.scrape_busy_s.get(link.name, 0.0)
                + link.serialization_s(n_bytes))

    def _miss(self, endpoint: str, reason: str, now_s: float) -> ScrapeResult:
        self.misses += 1
        self.registry.counter("fed.scrape_misses").inc()
        self.journal.emit("obs.scrape_miss", endpoint=endpoint,
                          reason=reason, now_s=now_s)
        return ScrapeResult(endpoint, ok=False, reason=reason)

    def scrape(self, now_s: float = 0.0) -> List[ScrapeResult]:
        """One scrape sweep over every target at virtual time ``now_s``.

        Returns one :class:`ScrapeResult` per target.  Down nodes and
        fabric tail-drops are misses (journaled); the previous
        snapshot, if any, stays in :attr:`latest` and its growing age
        is what :meth:`Federation.collect` reports as staleness.
        """
        results: List[ScrapeResult] = []
        for endpoint, source in self.targets:
            try:
                doc = source.metrics_snapshot()
            except Exception as exc:
                results.append(self._miss(endpoint, type(exc).__name__,
                                          now_s))
                continue
            response_bytes = len(json.dumps(doc, default=str))
            arrival = now_s
            if self.fabric is not None:
                self._charge(self.source_endpoint, endpoint,
                             self.request_bytes)
                self._charge(endpoint, self.source_endpoint, response_bytes)
                arrival = self.fabric.round_trip(
                    self.source_endpoint, endpoint, self.request_bytes,
                    response_bytes, now_s)
                if arrival is None:
                    results.append(self._miss(endpoint, "drop", now_s))
                    continue
            version = int(doc.get("fed", {}).get("version", 0))
            if version and version <= self._versions.get(endpoint, 0):
                results.append(self._miss(endpoint, "stale_version", now_s))
                continue
            self._versions[endpoint] = version
            self.latest[endpoint] = (doc, arrival)
            self.scrapes += 1
            self.registry.counter("fed.scrapes").inc()
            results.append(ScrapeResult(endpoint, ok=True, doc=doc,
                                        arrival_s=arrival))
        return results

    def scrape_utilization(self, elapsed_s: float) -> float:
        """Worst per-link fraction of ``elapsed_s`` spent serializing
        scrape traffic — the headline "telemetry overhead" number the
        federation drill holds under 3% of fabric capacity."""
        if elapsed_s <= 0 or not self.scrape_busy_s:
            return 0.0
        return min(1.0, max(self.scrape_busy_s.values()) / elapsed_s)


class Aggregator:
    """Merges per-node snapshot documents into one registry."""

    def __init__(self, gauge_policies: Optional[Mapping[str, str]] = None):
        self.gauge_policies = dict(GAUGE_POLICIES)
        if gauge_policies:
            self.gauge_policies.update(gauge_policies)

    def merge(self, docs: Sequence[Mapping[str, Any]]) -> MetricsRegistry:
        """One cluster-wide registry from per-node snapshot documents.

        ``docs`` should be ordered oldest-first when it matters: the
        ``last`` gauge policy takes the value from the latest document
        that carries the series.  Each sketch-carrying histogram series
        merges into a :class:`~repro.obs.registry.Histogram` holding
        the rows' summed sketch, with its lifetime count/sum/min/max;
        rows without a sketch are left out.
        """
        merged = MetricsRegistry(enabled=True)
        counters: Dict[_LabelKey, Counter] = {}
        gauges: Dict[_LabelKey, Gauge] = {}
        histograms: Dict[_LabelKey, Histogram] = {}
        for doc in docs:
            metrics = doc.get("metrics", doc)
            for row in metrics.get("counters", ()):
                key = _identity(row)
                counter = counters.get(key)
                if counter is None:
                    counter = Counter(row["name"],
                                      dict(row.get("labels", {})))
                    counters[key] = counter
                counter.value += row.get("value", 0)
            for row in metrics.get("gauges", ()):
                key = _identity(row)
                policy = self.gauge_policies.get(row["name"], "last")
                value = float(row.get("value", 0.0))
                gauge = gauges.get(key)
                if gauge is None:
                    gauge = Gauge(row["name"], dict(row.get("labels", {})))
                    gauge.value = value
                    gauges[key] = gauge
                elif policy == "max":
                    gauge.value = max(gauge.value, value)
                elif policy == "min":
                    gauge.value = min(gauge.value, value)
                else:
                    gauge.value = value
            for row in metrics.get("histograms", ()):
                payload = row.get("sketch")
                if payload is None:
                    continue
                incoming = QuantileSketch.from_dict(payload)
                key = _identity(row)
                histogram = histograms.get(key)
                if histogram is None:
                    histogram = Histogram(row["name"],
                                          dict(row.get("labels", {})))
                    histogram.sketch = QuantileSketch(
                        incoming.relative_accuracy)
                    histograms[key] = histogram
                histogram.sketch.merge(incoming)
        for histogram in histograms.values():
            sketch = histogram.sketch
            histogram.count, histogram.total = sketch.count, sketch.total
            histogram.min, histogram.max = sketch.min, sketch.max
        for table in (counters, gauges, histograms):
            for instrument in table.values():
                merged.adopt(instrument)
        return merged


class Federation:
    """Scrape → merge facade producing the cluster-wide registry.

    Usage::

        cluster = Cluster(n_nodes=5, node_registries=True, ...)
        fed = Federation.for_cluster(cluster)
        merged = fed.collect(cluster.virtual_now_s)
        SloEngine(default_slos(), registry=merged).evaluate()

    Every :meth:`collect` publishes the federation's own telemetry
    (``fed.merges``, ``fed.merge_latency_s``, per-node
    ``fed.node.staleness_s``) on the *local* registry, never on the
    merged output — the telemetry plane reports on itself in its own
    process, like any other layer.
    """

    def __init__(self, scraper: Scraper,
                 aggregator: Optional[Aggregator] = None,
                 registry: Optional[MetricsRegistry] = None,
                 journal: Optional[Journal] = None):
        self.scraper = scraper
        self.aggregator = aggregator or Aggregator()
        self._registry = registry
        self._journal = journal
        self.merged: Optional[MetricsRegistry] = None
        self.merges = 0

    @classmethod
    def for_cluster(cls, cluster,
                    registry: Optional[MetricsRegistry] = None,
                    journal: Optional[Journal] = None,
                    out_of_band: bool = False) -> "Federation":
        """Federation over every node of a ``node_registries=True``
        cluster, scraping across its fabric (or out-of-band)."""
        from repro.cluster.interconnect import node_endpoint
        targets = [(node_endpoint(node.node_id), node)
                   for node in cluster.nodes]
        scraper = Scraper(targets,
                          fabric=None if out_of_band else cluster.fabric,
                          registry=registry, journal=journal)
        return cls(scraper, registry=registry, journal=journal)

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def collect(self, now_s: float = 0.0) -> MetricsRegistry:
        """Scrape every target and merge: the cluster-wide registry.

        Nodes that missed this sweep contribute their last good
        snapshot (if any); each node's ``fed.node.staleness_s`` gauge
        reports how old the merged-in document is at ``now_s``.  The
        documents merge oldest arrival first (endpoint breaks ties),
        so the ``last`` gauge policy keeps the freshest value.
        """
        registry = self.registry
        self.scraper.scrape(now_s)
        started = perf_counter()
        docs = []
        for endpoint, (doc, arrival_s) in sorted(
                self.scraper.latest.items(),
                key=lambda item: (item[1][1], item[0])):
            docs.append(doc)
            staleness = max(0.0, now_s - arrival_s)
            registry.gauge("fed.node.staleness_s",
                           node=str(endpoint)).set(staleness)
        self.merged = self.aggregator.merge(docs)
        elapsed = perf_counter() - started
        self.merges += 1
        registry.counter("fed.merges").inc()
        registry.histogram("fed.merge_latency_s").observe(elapsed)
        return self.merged

    def merged_sketch(self, name: str, **labels: Any) -> QuantileSketch:
        """The exact cluster-wide sketch for ``name``: every matching
        histogram in the merged registry (each sketch-backed), merged
        again across its label variants (e.g. per-node series pooled
        into one distribution)."""
        if self.merged is None:
            raise RuntimeError("collect() has not produced a merge yet")
        sketches = [instrument.sketch
                    for instrument in self.merged.matching(name, **labels)
                    if instrument.kind == "histogram"]
        if not sketches:
            raise KeyError(f"no sketch-backed series named {name!r} "
                           f"with labels {labels} in the merged registry")
        return QuantileSketch.merged(sketches)

    def quantile(self, name: str, q: float, **labels: Any) -> float:
        """Cluster-wide quantile (``q`` in [0, 100]) for ``name``."""
        return self.merged_sketch(name, **labels).percentile(q)

    def scrape_utilization(self, elapsed_s: float) -> float:
        return self.scraper.scrape_utilization(elapsed_s)

    def __repr__(self) -> str:
        return (f"Federation(targets={len(self.scraper.targets)}, "
                f"merges={self.merges})")
