"""Federation drill: cluster-wide telemetry from per-node registries.

Extension experiment for the federation plane (:mod:`repro.obs.fed` +
:mod:`repro.obs.tsdb`): a 5-node prime-routed cluster is built with
**private per-node registries** (``node_registries=True``), served
bursty zipfian traffic, and scraped over its own fabric between
bursts.  Two arms run:

* **healthy** — every node serves at its modeled service time;
* **stalled** — one node is degraded (slow NIC penalty) for the whole
  run, so ~1/5 of requests blow the latency objective while every
  *individual* node's traffic volume stays below the SLO engine's
  ``min_events`` significance floor.

The second arm is the federation's reason to exist: per-node SLO
engines (same spec, same ``min_events``) stay silent because no single
node holds enough observations to page honestly, while the federated
engine — evaluating the *merged* registry where the per-node sketches
pool into one distribution — crosses both the volume floor and the
fast-burn threshold and pages.  The same birthday-paradox logic that
makes hash pathologies statistical makes them cluster-level signals.

The artifact's ``checks`` block asserts the telemetry contract:

* **merged quantiles are exact-ish** — the federated cluster-wide p99
  is within 2% of the exact pooled p99 (both arms);
* **paging lives at the right level** — the stalled arm pages the
  federated engine and no per-node engine; the healthy arm pages
  nobody;
* **telemetry is cheap** — scrape traffic serializes under 3% of the
  busiest link's capacity;
* **misses are journaled** — scraping a down node emits
  ``obs.scrape_miss``;
* **the TSDB keeps honest history** — raw retention is bounded,
  age-out produced downsampled points (counters as block rates), the
  recovered mean rate is near truth, and the windowed quantile from
  persisted sketches matches the exact pooled p99 within 2%.

With ``--check`` the CLI exits nonzero unless every check holds (the
``make fed-check`` gate, whose verdict reads ``federation-check:``).
"""

from __future__ import annotations

import sys
from functools import partial
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.cluster import Cluster, ReplicationConfig
from repro.engine import ExperimentContext, ExperimentSpec, register
from repro.obs import Journal, declare_core_metrics, set_journal
from repro.obs.fed import Federation
from repro.obs.health import SloEngine, SloSpec
from repro.obs.registry import MetricsRegistry
from repro.obs.sketch import QuantileSketch
from repro.obs.tsdb import TimeSeriesStore
from repro.store import make_traffic

#: Fleet size: five nodes is the smallest ring where one stalled
#: member is a clear minority of traffic (~20%) yet enough to burn a
#: 99% objective at the 14.4x fast rate.
N_NODES = 5

#: Latency objective: p99 of node request latency under this bound.
THRESHOLD_S = 150e-6
OBJECTIVE = 0.99

#: Significance floor as a fraction of the total request count: above
#: any single node's share (~1/5), below the pooled window.
MIN_EVENTS_FRAC = 0.5

#: Relative error budget for merged-vs-exact quantiles (the sketch is
#: built at 1% relative accuracy; 2% is the drill's contract).
QUANTILE_TOLERANCE = 0.02

#: Scrape serialization budget: worst-link fraction of fabric time.
SCRAPE_BUDGET = 0.03

#: Burst weights carving the request stream into uneven scrape
#: intervals (bursty zipfian: heavy sweeps interleaved with light).
BURST_WEIGHTS = (5, 1, 3, 1, 8, 2, 4, 1, 6, 2)

#: Per-node latency series every cluster op lands in (primary node).
LATENCY_SERIES = "cluster.node.request_latency_s"


def _burst_sizes(n_requests: int, sweeps: int) -> List[int]:
    """``sweeps`` uneven chunk sizes summing to ``n_requests``."""
    weights = [BURST_WEIGHTS[i % len(BURST_WEIGHTS)]
               for i in range(sweeps)]
    total = sum(weights)
    sizes = [max(1, n_requests * w // total) for w in weights]
    sizes[-1] += n_requests - sum(sizes)
    return sizes


def _slo_spec() -> SloSpec:
    return SloSpec.latency(
        "fed-cluster-p99", LATENCY_SERIES, threshold_s=THRESHOLD_S,
        objective=OBJECTIVE,
        description="cluster-wide node request latency under the "
                    "objective, evaluated on the federated registry")


def measure(arm: str, n_requests: int, sweeps: int = 24,
            retention_points: int = 16, downsample_ratio: int = 4,
            seed: int = 0) -> Dict:
    """Run the drill for one arm (``healthy`` or ``stalled``)."""
    journal = Journal()
    previous = set_journal(journal)
    try:
        local = MetricsRegistry(enabled=True)
        declare_core_metrics(local)
        cluster = Cluster(
            n_nodes=N_NODES, node_scheme="pmod", shard_scheme="pmod",
            shard_capacity=max(256, n_requests // (2 * N_NODES)),
            replication=ReplicationConfig(replicas=2),
            node_registries=True)
        fed = Federation.for_cluster(cluster, registry=local,
                                     journal=journal)
        tsdb = TimeSeriesStore(retention_points=retention_points,
                               downsample_ratio=downsample_ratio,
                               registry=local, journal=journal)
        min_events = int(n_requests * MIN_EVENTS_FRAC)
        fed_engine: Optional[SloEngine] = None
        node_engines = [
            SloEngine([_slo_spec()], registry=node.registry,
                      journal=journal, min_events=min_events)
            for node in cluster.nodes
        ]

        victim = -1
        if arm == "stalled":
            # Stalled from the first request: a slow NIC, not a crash —
            # the node serves everything, just late.
            victim = 0
            cluster.degrade_node(victim)

        requests = make_traffic("zipfian", n_requests, seed=seed)
        cursor = 0
        latency_mark = 0
        fed_alerts = 0
        node_alerts = [0] * N_NODES
        for size in _burst_sizes(n_requests, sweeps):
            for request in requests[cursor:cursor + size]:
                if request.op == "put":
                    cluster.put(request.key, request.value)
                elif request.op == "delete":
                    cluster.delete(request.key)
                else:
                    cluster.get(request.key)
            cursor += size
            now_s = cluster.virtual_now_s
            merged = fed.collect(now_s)
            if fed_engine is None:
                fed_engine = SloEngine([_slo_spec()], registry=merged,
                                       journal=journal,
                                       min_events=min_events)
            else:
                fed_engine.rebind(merged)
            for status in fed_engine.evaluate():
                fed_alerts += status.alerting
            for node_id, engine in enumerate(node_engines):
                for status in engine.evaluate():
                    node_alerts[node_id] += status.alerting
            # The TSDB records the sweep: the burst's latency sketch,
            # the cumulative op counter, and the balance gauge.
            window = list(cluster._latencies)[latency_mark:]
            latency_mark += len(window)
            sketch = QuantileSketch()
            for value in window:
                sketch.add(value)
            tsdb.append("cluster.latency", now_s, sketch, kind="sketch")
            tsdb.append("cluster.ops", now_s,
                        float(cluster.counts["ops"]), kind="counter")
            tsdb.append("cluster.node_balance", now_s,
                        cluster.telemetry().node_balance, kind="gauge")

        elapsed_s = cluster.virtual_now_s
        exact = np.asarray(cluster._latencies, dtype=float)
        exact_p99 = float(np.percentile(exact, 99))
        fed_p99 = fed.quantile(LATENCY_SERIES, 99)
        pooled = fed.merged_sketch(LATENCY_SERIES)

        # Force one honest miss: a crashed node's exporter is gone.
        cluster.fail_node(N_NODES - 1)
        fed.scraper.scrape(elapsed_s)
        miss_events = journal.find("obs.scrape_miss")
        evict_events = journal.find("obs.tsdb_evict")

        raw_points = [p for p in tsdb.range("cluster.ops")
                      if p.kind == "counter"]
        aged_points = [p for p in tsdb.range("cluster.ops")
                       if p.kind == "rate"]
        tsdb_rate = tsdb.rate("cluster.ops")
        true_rate = (cluster.counts["ops"] / elapsed_s
                     if elapsed_s > 0 else 0.0)
        tsdb_p99 = tsdb.quantile("cluster.latency", 99)
        return {
            "arm": arm,
            "victim": victim,
            "requests": n_requests,
            "sweeps": sweeps,
            "min_events": min_events,
            "elapsed_s": elapsed_s,
            "exact_p99_s": exact_p99,
            "fed_p99_s": fed_p99,
            "fed_p99_rel_err": (abs(fed_p99 - exact_p99)
                                / max(exact_p99, 1e-12)),
            "pooled_count": len(pooled),
            "node_window_counts": [
                sum(instrument.count for instrument
                    in node.registry.matching(LATENCY_SERIES)
                    if instrument.kind == "histogram")
                for node in cluster.nodes
            ],
            "fed_alert_evals": fed_alerts,
            "node_alert_evals": node_alerts,
            "scrapes": fed.scraper.scrapes,
            "scrape_misses": fed.scraper.misses,
            "scrape_miss_events": len(miss_events),
            "scrape_utilization": fed.scrape_utilization(elapsed_s),
            "tsdb": {
                "appends": tsdb.appends,
                "evictions": tsdb.evictions,
                "evict_events": len(evict_events),
                "raw_points": len(raw_points),
                "aged_points": len(aged_points),
                "retention_points": retention_points,
                "rate": tsdb_rate,
                "true_rate": true_rate,
                "rate_rel_err": (abs(tsdb_rate - true_rate)
                                 / max(true_rate, 1e-12)),
                "p99_s": tsdb_p99,
                "p99_rel_err": (abs(tsdb_p99 - exact_p99)
                                / max(exact_p99, 1e-12)),
            },
        }
    finally:
        set_journal(previous)


def run(n_requests: int = 6000, sweeps: int = 24,
        retention_points: int = 16, downsample_ratio: int = 4,
        seed: int = 0) -> Dict[str, Dict]:
    """Both arms: ``result[arm] = drill measurement payload``."""
    return {
        arm: measure(arm, n_requests, sweeps=sweeps,
                     retention_points=retention_points,
                     downsample_ratio=downsample_ratio, seed=seed)
        for arm in ("healthy", "stalled")
    }


def federation_checks(cells: Mapping[str, Mapping]) -> Dict[str, bool]:
    """The federation contract, one boolean per claim."""
    checks: Dict[str, bool] = {}
    for arm, cell in cells.items():
        checks[f"{arm}_merged_p99_within_2pct"] = (
            cell["fed_p99_rel_err"] <= QUANTILE_TOLERANCE)
        checks[f"{arm}_scrape_overhead_under_3pct"] = (
            cell["scrape_utilization"] < SCRAPE_BUDGET)
        checks[f"{arm}_scrape_miss_journaled"] = (
            cell["scrape_miss_events"] > 0)
        tsdb = cell["tsdb"]
        checks[f"{arm}_tsdb_retention_bounded"] = (
            0 < tsdb["raw_points"] <= tsdb["retention_points"])
        checks[f"{arm}_tsdb_downsampled"] = (
            tsdb["aged_points"] > 0
            and tsdb["evict_events"] == tsdb["evictions"] > 0)
        checks[f"{arm}_tsdb_rate_near_truth"] = (
            tsdb["rate_rel_err"] <= 0.35)
        checks[f"{arm}_tsdb_p99_within_2pct"] = (
            tsdb["p99_rel_err"] <= QUANTILE_TOLERANCE)
        # The volume gate must actually gate: no single node's window
        # reaches the significance floor in either arm.
        checks[f"{arm}_no_node_reaches_min_events"] = all(
            count < cell["min_events"]
            for count in cell["node_window_counts"])
    healthy = cells.get("healthy")
    stalled = cells.get("stalled")
    if healthy is not None:
        checks["healthy_nobody_pages"] = (
            healthy["fed_alert_evals"] == 0
            and sum(healthy["node_alert_evals"]) == 0)
    if stalled is not None:
        checks["stalled_federated_engine_pages"] = (
            stalled["fed_alert_evals"] > 0)
        checks["stalled_local_view_stays_quiet"] = (
            sum(stalled["node_alert_evals"]) == 0)
    return checks


def render(data: Mapping) -> str:
    """One row per arm plus the contract verdict."""
    header = (f"{'arm':<9} {'exact p99':>10} {'fed p99':>10} "
              f"{'err':>6} {'pages(fed)':>10} {'pages(node)':>11} "
              f"{'scrape util':>11} {'tsdb raw/aged':>13}")
    lines = [
        f"Federation drill — {N_NODES}-node pmod cluster, bursty "
        f"zipfian ({data['n_requests']} requests, {data['sweeps']} "
        f"scrape sweeps, objective p99 <= {THRESHOLD_S * 1e6:.0f}us "
        f"@ {OBJECTIVE:.0%}, min_events {MIN_EVENTS_FRAC:.0%} of "
        "stream)",
        header,
        "-" * len(header),
    ]
    for arm, cell in data["cells"].items():
        tsdb = cell["tsdb"]
        lines.append(
            f"{arm:<9} {cell['exact_p99_s'] * 1e6:>8.1f}us "
            f"{cell['fed_p99_s'] * 1e6:>8.1f}us "
            f"{cell['fed_p99_rel_err']:>6.2%} "
            f"{cell['fed_alert_evals']:>10} "
            f"{sum(cell['node_alert_evals']):>11} "
            f"{cell['scrape_utilization']:>11.3%} "
            f"{tsdb['raw_points']:>6}/{tsdb['aged_points']:<6}")
    checks = data.get("checks", {})
    if checks:
        verdict = "ok" if all(checks.values()) else "VIOLATED"
        lines.append("")
        lines.append(
            f"Federation contract: {verdict} "
            f"({sum(checks.values())}/{len(checks)} checks hold — "
            "exact-ish merged quantiles, paging at cluster level only, "
            "scrape overhead bounded, TSDB retention honest)")
    return "\n".join(lines)


def _build(ctx: ExperimentContext) -> Dict:
    n_requests = max(500, int(int(ctx.param("requests", 6000))
                              * ctx.config.scale))
    params = {
        "n_requests": n_requests,
        "sweeps": int(ctx.param("sweeps", 24)),
        "retention_points": int(ctx.param("retention_points", 16)),
        "downsample_ratio": int(ctx.param("downsample_ratio", 4)),
        "seed": ctx.config.seed,
    }
    cells = {
        arm: ctx.cached("federation-drill", arm, params,
                        partial(measure, arm, **params))
        for arm in ("healthy", "stalled")
    }
    return {
        "n_requests": n_requests,
        "sweeps": params["sweeps"],
        "cells": cells,
        "checks": federation_checks(cells),
    }


def _render_artifact(artifact: Mapping) -> str:
    return render(artifact["data"])


register(ExperimentSpec(
    name="federation",
    title="Federation drill: cluster-wide quantiles, paging, and "
          "telemetry cost (extension)",
    build=_build,
    render=_render_artifact,
    uses_simulation=False,
))


if __name__ == "__main__":
    from repro.experiments.__main__ import main
    main(["federation", *sys.argv[1:]])
