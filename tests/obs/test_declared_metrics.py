"""Pre-declared metric schema: stable snapshots before first traffic."""

from repro.obs import (
    ADVERSARY_METRICS,
    CLUSTER_METRICS,
    CONTROL_METRICS,
    CORE_COUNTERS,
    FED_METRICS,
    HEALTH_METRICS,
    JOURNAL_METRICS,
    SERVE_METRICS,
    STORE_METRICS,
    MetricsRegistry,
    declare_core_metrics,
    enable_observability,
    get_registry,
)

#: Every declared layer's name -> kind mapping, in one place so the
#: parity tests below cover new layers automatically.
DECLARED_LAYERS = (STORE_METRICS, SERVE_METRICS, JOURNAL_METRICS,
                   HEALTH_METRICS, CONTROL_METRICS, CLUSTER_METRICS,
                   ADVERSARY_METRICS, FED_METRICS)


class TestDeclaredSchema:
    def test_enable_pre_declares_every_layer(self):
        """A snapshot taken before any traffic already carries every
        engine/store/serve/journal/health series name, all at zero —
        consumers can rely on the schema without probing which layers
        ran."""
        enable_observability()
        snapshot = get_registry().snapshot()
        counter_names = {c["name"] for c in snapshot["counters"]}
        gauge_names = {g["name"] for g in snapshot["gauges"]}
        histogram_names = {h["name"] for h in snapshot["histograms"]}
        # Sketch-kind series snapshot under the histogram namespace.
        by_kind = {"counter": counter_names, "gauge": gauge_names,
                   "histogram": histogram_names, "sketch": histogram_names}
        for name in CORE_COUNTERS:
            assert name in counter_names
        for metrics in DECLARED_LAYERS:
            for name, kind in metrics.items():
                assert name in by_kind[kind], f"{name} not pre-declared"

    def test_declaration_parity_with_emitting_code(self):
        """Every ``journal.*`` / ``health.*`` series the journal and
        health layers emit is pre-declared, and vice versa: a cold
        snapshot and a post-drill snapshot expose the same unlabeled
        journal/health names (schema parity, not just a subset)."""
        from repro.obs import Journal, set_journal
        from repro.obs.health import (
            HashQualityDetector,
            SloEngine,
            default_slos,
            strict_bands,
        )

        registry, _ = enable_observability()
        cold = {name for name in _names(registry)
                if name.startswith(("journal.", "health."))}

        journal = Journal()
        set_journal(journal)
        journal.emit("experiment.start")  # a registered probe kind
        engine = SloEngine(default_slos(), registry=registry,
                           journal=journal)
        engine.evaluate()
        detector = HashQualityDetector(strict_bands(8), registry=registry,
                                       journal=journal)
        detector.grade("pmod", balance=1.0, concentration=0.0)
        detector.grade("traditional", balance=99.0, concentration=50.0)

        warm = {name for name in _names(registry)
                if name.startswith(("journal.", "health."))}
        declared = set(JOURNAL_METRICS) | set(HEALTH_METRICS)
        assert cold == declared
        # Warm adds only *labeled* variants of declared names, never a
        # journal./health. name that was not declared cold.
        assert warm == declared

    def test_control_declaration_parity_with_emitting_code(self):
        """Every ``control.*`` series the remediation controller emits
        is pre-declared, and vice versa: a cold snapshot and a snapshot
        taken after a full observe -> decide -> apply step (including a
        quarantine) expose exactly the declared control names."""
        from repro.control import Action, RemediationController
        from repro.obs import Journal, set_journal
        from repro.obs.health import SloEngine, default_slos
        from repro.store import ShardedStore

        registry, _ = enable_observability()
        cold = {name for name in _names(registry)
                if name.startswith("control.")}

        journal = Journal()
        set_journal(journal)
        store = ShardedStore(n_shards=8, scheme="pmod", shard_capacity=64,
                             registry=registry)
        controller = RemediationController(
            store, SloEngine(default_slos(), registry=registry,
                             journal=journal),
            journal=journal, registry=registry)
        controller.step()  # healthy: evaluates, decides nothing
        controller.apply(Action(kind="quarantine", reason="parity probe",
                                detail={"shards": [1]}))

        warm = {name for name in _names(registry)
                if name.startswith("control.")}
        declared = set(CONTROL_METRICS)
        assert cold == declared
        # The controller's counters are all unlabeled, so even a warm
        # registry exposes exactly the declared set — no more, no less.
        assert warm == declared

    def test_cluster_declaration_parity_with_emitting_code(self):
        """Every unlabeled ``cluster.*`` series the cluster tier can
        emit is pre-declared: a cold snapshot carries exactly the
        declared cluster names, and a snapshot taken after a full
        drill (traffic, node kill, recovery drain, telemetry publish)
        adds only *labeled* variants of declared names."""
        from repro.cluster import Cluster, ReplicationConfig
        from repro.obs import Journal, set_journal

        registry, _ = enable_observability()
        cold = {name for name in _names(registry)
                if name.startswith("cluster.")}

        set_journal(Journal())
        cluster = Cluster(n_nodes=5, node_scheme="pmod",
                          shard_scheme="pmod", shards_per_node=8,
                          replication=ReplicationConfig(replicas=2),
                          registry=registry)
        for i in range(64):
            cluster.put(i, i)
        cluster.fail_node(1)
        for i in range(64):
            cluster.get(i)
        cluster.recover_node(1)
        cluster.telemetry()

        warm = {name for name in _names(registry)
                if name.startswith("cluster.")}
        declared = set(CLUSTER_METRICS)
        assert cold == declared
        # Warm adds only labeled variants (per-node state gauges,
        # per-link utilization), never an undeclared cluster. name.
        assert warm == declared

    def test_declared_series_start_at_zero(self):
        registry = MetricsRegistry(enabled=True)
        declare_core_metrics(registry)
        for counter in registry.counters():
            assert counter.value == 0
        for histogram in registry.histograms():
            assert histogram.as_dict()["count"] == 0

    def test_adversary_declaration_parity_with_emitting_code(self):
        """Every ``adversary.*`` series the attack tooling emits is
        pre-declared: a cold snapshot carries exactly the declared
        adversary names, and a full crack + hostile-trace synthesis
        adds only *labeled* variants of declared names."""
        import asyncio

        from repro.adversary import ProbeAdversary, synthesize_hostile_trace
        from repro.obs import Journal, set_journal
        from repro.serve import AdmissionConfig, BatchConfig, Frontend
        from repro.store import ShardedStore

        registry, _ = enable_observability()
        cold = {name for name in _names(registry)
                if name.startswith("adversary.")}

        set_journal(Journal())

        async def drill():
            store = ShardedStore(n_shards=4, scheme="traditional",
                                 shard_capacity=64, registry=registry)
            async with Frontend(
                    store,
                    batch=BatchConfig(max_batch_size=8, max_wait_s=0.001),
                    admission=AdmissionConfig(rate=None,
                                              max_queue_depth=1024),
            ) as frontend:
                adversary = ProbeAdversary(frontend, key_bits=4,
                                           crack_keys=8,
                                           registry=registry)
                return await adversary.crack()

        result = asyncio.run(drill())
        synthesize_hostile_trace(result, 16, registry=registry)

        warm = {name for name in _names(registry)
                if name.startswith("adversary.")}
        declared = set(ADVERSARY_METRICS)
        assert cold == declared
        assert warm == declared

    def test_fed_declaration_parity_with_emitting_code(self):
        """Every ``fed.*`` series the federation plane emits is
        pre-declared: a cold snapshot carries exactly the declared fed
        names, and a full scrape -> merge -> TSDB drill (including a
        forced scrape miss and a retention eviction) adds only
        *labeled* variants of declared names."""
        from repro.cluster import Cluster
        from repro.obs import Journal, set_journal
        from repro.obs.fed import Federation
        from repro.obs.tsdb import TimeSeriesStore

        registry, _ = enable_observability()
        cold = {name for name in _names(registry)
                if name.startswith("fed.")}

        set_journal(Journal())
        cluster = Cluster(n_nodes=5, node_scheme="pmod",
                          shard_scheme="pmod", node_registries=True,
                          registry=registry)
        for i in range(128):
            cluster.put(i, i)
        fed = Federation.for_cluster(cluster, registry=registry)
        fed.collect(cluster.virtual_now_s)
        cluster.fail_node(0)
        fed.collect(cluster.virtual_now_s + 1.0)  # forced scrape miss
        tsdb = TimeSeriesStore(retention_points=4, downsample_ratio=4,
                               registry=registry)
        for t in range(8):  # enough appends to force an eviction
            tsdb.append("probe", float(t), 1.0)

        warm = {name for name in _names(registry)
                if name.startswith("fed.")}
        declared = set(FED_METRICS)
        assert cold == declared
        # Warm adds only labeled per-node staleness gauges, never an
        # undeclared fed. name.
        assert warm == declared
        # The drill exercised every declared counter at least once.
        assert registry.counter("fed.scrapes").value > 0
        assert registry.counter("fed.scrape_misses").value > 0
        assert registry.counter("fed.merges").value == 2
        assert registry.counter("fed.tsdb.appends").value == 8
        assert registry.counter("fed.tsdb.evictions").value > 0

    def test_declared_names_do_not_collide_across_layers(self):
        for i, left in enumerate(DECLARED_LAYERS):
            assert not set(CORE_COUNTERS) & set(left)
            for right in DECLARED_LAYERS[i + 1:]:
                assert not set(left) & set(right)

    def test_kinds_are_valid_registry_factories(self):
        registry = MetricsRegistry(enabled=True)
        for metrics in DECLARED_LAYERS:
            for kind in metrics.values():
                assert kind in ("counter", "gauge", "histogram", "sketch")
                factory = "histogram" if kind == "sketch" else kind
                assert callable(getattr(registry, factory))

    def test_sketch_kind_declares_a_sketch_histogram(self):
        """Series declared with kind ``"sketch"`` must come up as
        histograms holding a sketch, not plain ones — a sketchless
        histogram under a sketch name would silently drop out of
        federation merges."""
        registry = MetricsRegistry(enabled=True)
        declare_core_metrics(registry)
        for layer in DECLARED_LAYERS:
            for name, kind in layer.items():
                if kind != "sketch":
                    continue
                (series,) = registry.matching(name)
                assert series.sketch is not None


def _names(registry):
    snapshot = registry.snapshot()
    return {row["name"]
            for kind in ("counters", "gauges", "histograms")
            for row in snapshot[kind]}
