"""`repro.obs` — unified metrics, tracing, journal, and health layer.

One process-wide :class:`MetricsRegistry` (counters, gauges, windowed
p50/p95/p99 histograms — optionally holding a lifetime
:class:`QuantileSketch` that :mod:`repro.obs.fed` sums across nodes —
labeled series), one :class:`TraceCollector`
(sampled request traces and nested wall-time spans, one trace model:
:mod:`repro.obs.attrib`), one append-only event
:class:`~repro.obs.journal.Journal` (JSONL, monotonic sequence
numbers), and pluggable sinks (JSON snapshot, Prometheus text
exposition, human-readable tables).  The engine (:mod:`repro.engine`),
the sharded store (:mod:`repro.store`) and the serving frontend
(:mod:`repro.serve`) report into all three; the health layer
(:mod:`repro.obs.health`) closes the loop — SLO burn-rate alerting and
hash-quality drift detection over the live registry — and
:mod:`repro.obs.dash` renders everything into one dashboard.  See
``docs/observability.md`` for naming conventions and schemas.

Everything starts **disabled** and costs a no-op call on the hot
paths; ``python -m repro.experiments <name> --metrics-out PATH
[--trace] [--journal PATH] [--dash PATH]`` (or
:func:`enable_observability`) switches it on for one run and dumps the
snapshot next to the artifact.
"""

from repro.obs.attrib import (
    CriticalPathAnalyzer,
    FlightRecorder,
    HeavyHitterTracker,
    Stage,
    Trace,
    TraceCollector,
    TraceContext,
    activate,
    current_trace,
    get_collector,
    set_collector,
    trace_span,
)
from repro.obs.journal import (
    EVENT_SCHEMA_VERSION,
    Journal,
    JournalEvent,
    disable_journal,
    enable_journal,
    get_journal,
    set_journal,
    validate_event,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL,
    NullInstrument,
    get_registry,
    set_registry,
)
from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch
from repro.obs.sinks import (
    SNAPSHOT_SCHEMA_VERSION,
    metrics_snapshot,
    metrics_table,
    to_prometheus,
    validate_snapshot,
    write_snapshot,
)

__all__ = [
    "ADVERSARY_METRICS",
    "CLUSTER_METRICS",
    "CONTROL_METRICS",
    "CORE_COUNTERS",
    "DEFAULT_RELATIVE_ACCURACY",
    "EVENT_SCHEMA_VERSION",
    "FED_METRICS",
    "HEALTH_METRICS",
    "JOURNAL_METRICS",
    "Journal",
    "JournalEvent",
    "OBS_METRICS",
    "QuantileSketch",
    "SERVE_METRICS",
    "STORE_METRICS",
    "Counter",
    "CriticalPathAnalyzer",
    "FlightRecorder",
    "Gauge",
    "HeavyHitterTracker",
    "Histogram",
    "MetricsRegistry",
    "NULL",
    "NullInstrument",
    "SNAPSHOT_SCHEMA_VERSION",
    "Stage",
    "Trace",
    "TraceCollector",
    "TraceContext",
    "activate",
    "current_trace",
    "declare_core_metrics",
    "disable_journal",
    "disable_observability",
    "enable_journal",
    "enable_observability",
    "get_collector",
    "get_journal",
    "get_registry",
    "metrics_snapshot",
    "metrics_table",
    "set_collector",
    "set_journal",
    "set_registry",
    "to_prometheus",
    "trace_span",
    "validate_event",
    "validate_snapshot",
    "write_snapshot",
]

#: Counters every instrumented run reports, pre-declared at zero when
#: observability is enabled so snapshots are schema-stable even for
#: runs that never touch a layer (e.g. an analysis-only experiment
#: with no result cache configured).
CORE_COUNTERS = (
    "engine.cache.hits",
    "engine.cache.misses",
    "engine.cache.writes",
    "engine.cache.corrupt",
    "engine.sim.runs",
    "engine.trace.builds",
)

#: Store-layer series, pre-declared (unlabeled, zero-valued) alongside
#: :data:`CORE_COUNTERS` so a snapshot taken before any traffic still
#: carries every name the store can emit.  Values map name -> kind.
STORE_METRICS = {
    "store.requests": "counter",
    "store.op.latency_s": "histogram",
    "store.shard.latency_s": "histogram",
    "store.replay.chunk_s": "histogram",
    "store.balance": "gauge",
    "store.concentration": "gauge",
    "store.tail_load": "gauge",
    "store.hit_rate": "gauge",
    "store.epoch": "gauge",
    "store.migrated_keys": "counter",
}

#: Serving-layer (`repro.serve`) series, same contract as
#: :data:`STORE_METRICS`.
SERVE_METRICS = {
    "serve.requests": "counter",
    "serve.rejected": "counter",
    "serve.retries": "counter",
    "serve.timeouts": "counter",
    "serve.errors": "counter",
    "serve.dropped": "counter",
    "serve.batches": "counter",
    "serve.latency_s": "histogram",
    "serve.batch_size": "histogram",
    "serve.queue_depth": "gauge",
    "serve.rebinds": "counter",
}

#: Event-journal series (`repro.obs.journal`), same contract.
JOURNAL_METRICS = {
    "journal.events": "counter",
    "journal.rotations": "counter",
}

#: Health-layer series (`repro.obs.health`), same contract.  The
#: labeled `health.burn_rate{slo,window}` / `health.drift.ok{scheme}`
#: series still appear on first evaluation; the unlabeled declarations
#: keep cold and warm snapshots schema-identical.
HEALTH_METRICS = {
    "health.evaluations": "counter",
    "health.alerts": "counter",
    "health.burn_rate": "gauge",
    "health.drift.trips": "counter",
    "health.drift.ok": "gauge",
    "health.adversary.trips": "counter",
    "health.adversary.ok": "gauge",
}

#: Remediation-controller series (`repro.control`), same contract.
#: All unlabeled counters: the controller's identity is the journal's
#: ``control.*`` events; the counters only rate its activity.
CONTROL_METRICS = {
    "control.evaluations": "counter",
    "control.actions": "counter",
    "control.quarantines": "counter",
    "control.reshards": "counter",
    "control.scheme_swaps": "counter",
    "control.node_quarantines": "counter",
    "control.key_rotations": "counter",
}

#: Adversary-subsystem series (`repro.adversary`), same contract.
#: Probe counters rate the attacker's oracle traffic; the gauge holds
#: the last solver verification accuracy per cracked scheme (labeled
#: variants appear on first crack, the unlabeled declaration keeps
#: snapshots schema-stable).
ADVERSARY_METRICS = {
    "adversary.probes": "counter",
    "adversary.conflict_tests": "counter",
    "adversary.cracks": "counter",
    "adversary.hostile_requests": "counter",
    "adversary.recovery_accuracy": "gauge",
}

#: Cluster-tier series (`repro.cluster`), same contract.  The labeled
#: per-node/per-link series (``cluster.node.state{node}``,
#: ``cluster.link.utilization{link}``) still appear on first touch;
#: the unlabeled declarations keep snapshots schema-stable.
CLUSTER_METRICS = {
    "cluster.requests": "counter",
    "cluster.quorum_misses": "counter",
    "cluster.read_repairs": "counter",
    "cluster.replica_errors": "counter",
    "cluster.rereplicated_keys": "counter",
    "cluster.node_failures": "counter",
    "cluster.link.drops": "counter",
    "cluster.node.state": "gauge",
    "cluster.node_balance": "gauge",
    "cluster.link.utilization": "gauge",
    "cluster.op.sim_latency_s": "histogram",
    "cluster.node.request_latency_s": "sketch",
}

#: Attribution-layer series (`repro.obs.attrib`), same contract.
OBS_METRICS = {
    "obs.flight_dumps": "counter",
}

#: Federation-layer series (`repro.obs.fed` + `repro.obs.tsdb`), same
#: contract.  Scrape/merge counters rate the telemetry plane's own
#: traffic; ``fed.node.staleness_s`` holds each node's snapshot age at
#: the last merge (labeled per node on first scrape, the unlabeled
#: declaration keeps snapshots schema-stable).
FED_METRICS = {
    "fed.scrapes": "counter",
    "fed.scrape_misses": "counter",
    "fed.merges": "counter",
    "fed.merge_latency_s": "histogram",
    "fed.tsdb.appends": "counter",
    "fed.tsdb.evictions": "counter",
    "fed.node.staleness_s": "gauge",
}

#: Declaration kind -> registry factory call.  ``"sketch"`` declares a
#: :class:`Histogram` that also feeds a lifetime quantile sketch (the
#: federation feed), under the histogram namespace.
_DECLARERS = {
    "counter": lambda registry, name: registry.counter(name),
    "gauge": lambda registry, name: registry.gauge(name),
    "histogram": lambda registry, name: registry.histogram(name),
    "sketch": lambda registry, name: registry.histogram(name, sketch=True),
}


def declare_core_metrics(registry: MetricsRegistry = None) -> None:
    """Materialize the stable snapshot schema on ``registry``:
    :data:`CORE_COUNTERS` plus the :data:`STORE_METRICS` /
    :data:`SERVE_METRICS` / :data:`JOURNAL_METRICS` /
    :data:`HEALTH_METRICS` / :data:`CONTROL_METRICS` /
    :data:`CLUSTER_METRICS` / :data:`ADVERSARY_METRICS` /
    :data:`OBS_METRICS` / :data:`FED_METRICS` series, all at zero."""
    # Explicit None check: an empty registry is falsy (len() == 0), so
    # ``registry or get_registry()`` would silently drop a fresh one.
    if registry is None:
        registry = get_registry()
    for name in CORE_COUNTERS:
        registry.counter(name)
    for metrics in (STORE_METRICS, SERVE_METRICS, JOURNAL_METRICS,
                    HEALTH_METRICS, CONTROL_METRICS, CLUSTER_METRICS,
                    ADVERSARY_METRICS, OBS_METRICS, FED_METRICS):
        for name, kind in metrics.items():
            _DECLARERS[kind](registry, name)


def enable_observability(clear: bool = True):
    """Enable the process-wide registry and trace collector; returns
    (registry, collector).

    ``clear`` resets any series/spans/traces accumulated by a previous
    enable, so one CLI run snapshots only its own events.  The journal
    is separate opt-in (:func:`enable_journal` / ``--journal PATH``)
    because it has a durable on-disk sink, but its metric series are
    declared here so snapshots stay schema-stable either way.
    """
    registry = get_registry().enable()
    collector = get_collector()
    collector.enabled = True
    if clear:
        registry.clear()
        collector.clear()
    declare_core_metrics(registry)
    return registry, collector


def disable_observability():
    """Disable the process-wide registry, trace collector, and journal;
    returns (registry, collector)."""
    disable_journal()
    collector = get_collector()
    collector.enabled = False
    return get_registry().disable(), collector
