"""The telemetry plane under load: the federation benchmark.

Measures the three rates that bound how much cluster you can watch:

* **scrape_rps** — scrape sweeps per second over a 5-node cluster's
  fabric (serialize + round-trip + version check, per node);
* **merge_ns_per_series** — aggregator merge cost per series, the
  per-evaluation price of the cluster-wide registry;
* **tsdb_append_rps** — appends per second into the in-memory
  time-series store the federation drill uses, ring age-out included.

Emits ``BENCH_fed.json`` at the repo root — the machine-readable
record future PRs regress their telemetry changes against (gated by
``repro.obs.benchguard`` via ``make bench-check``).
"""

import json
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

from repro.cluster import Cluster, ReplicationConfig
from repro.obs import declare_core_metrics
from repro.obs.fed import Aggregator, Federation
from repro.obs.registry import MetricsRegistry
from repro.obs.sinks import metrics_snapshot
from repro.obs.tsdb import TimeSeriesStore

N_NODES = 5
WARM_OPS = 4000
SCRAPE_SWEEPS = 50
MERGE_ROUNDS = 50
TSDB_APPENDS = 20000

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_fed.json"


def _warm_cluster():
    """A 5-node cluster with per-node registries full of real series."""
    cluster = Cluster(n_nodes=N_NODES, node_scheme="pmod",
                      shard_scheme="pmod",
                      replication=ReplicationConfig(replicas=2),
                      node_registries=True)
    for i in range(WARM_OPS // 2):
        cluster.put(i, i)
    for i in range(WARM_OPS // 2):
        cluster.get(i)
    return cluster


def _scrape_rate(fed, cluster):
    """Scrape sweeps per second (each sweep polls every node)."""
    started = perf_counter()
    for _ in range(SCRAPE_SWEEPS):
        fed.scraper.scrape(cluster.virtual_now_s)
    elapsed = perf_counter() - started
    return SCRAPE_SWEEPS / elapsed if elapsed > 0 else 0.0


def test_federation_plane(benchmark):
    cluster = _warm_cluster()
    local = MetricsRegistry(enabled=True)
    declare_core_metrics(local)
    fed = Federation.for_cluster(cluster, registry=local,
                                 out_of_band=True)

    scrape_rps = benchmark(lambda: _scrape_rate(fed, cluster))

    # Merge cost per series over the real scraped documents.
    docs = [doc for doc, _arrival in fed.scraper.latest.values()]
    aggregator = Aggregator()
    merged = aggregator.merge(docs)
    n_series = sum(len(rows) for rows
                   in metrics_snapshot(merged)["metrics"].values())
    started = perf_counter()
    for _ in range(MERGE_ROUNDS):
        aggregator.merge(docs)
    merge_elapsed = perf_counter() - started
    merge_ns_per_series = (merge_elapsed / (MERGE_ROUNDS * n_series)
                           * 1e9 if n_series else 0.0)

    # Append throughput with age-out in the loop.
    tsdb = TimeSeriesStore(retention_points=256, downsample_ratio=8,
                           registry=local)
    started = perf_counter()
    for i in range(TSDB_APPENDS):
        tsdb.append("bench.gauge", float(i), float(i % 97))
    tsdb_elapsed = perf_counter() - started
    tsdb_append_rps = (TSDB_APPENDS / tsdb_elapsed
                       if tsdb_elapsed > 0 else 0.0)

    print()
    print(f"  scrape sweeps      {scrape_rps:>10.0f} sweeps/s "
          f"({N_NODES} nodes each)")
    print(f"  merge cost         {merge_ns_per_series:>10.0f} ns/series "
          f"({n_series} series, {len(docs)} docs)")
    print(f"  tsdb appends       {tsdb_append_rps:>10.0f} appends/s "
          f"(in memory, {tsdb.evictions} evictions)")

    payload = {
        "bench": "fed",
        "generated_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "n_nodes": N_NODES,
        "warm_ops": WARM_OPS,
        "scrape_sweeps": SCRAPE_SWEEPS,
        "merge_rounds": MERGE_ROUNDS,
        "tsdb_appends": TSDB_APPENDS,
        "n_series": n_series,
        "scrape_rps": scrape_rps,
        "merge_ns_per_series": merge_ns_per_series,
        "tsdb_append_rps": tsdb_append_rps,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {BENCH_PATH}")

    # The telemetry contract, asserted on the measured plane.
    assert fed.scraper.scrapes > 0
    assert n_series > 0
    assert tsdb_append_rps > 0
