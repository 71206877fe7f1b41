"""Cluster drill: two-level prime routing through node loss + recovery.

Extension experiment for the multi-node tier (:mod:`repro.cluster`):
each routing *stack* (outer node scheme + inner shard scheme) serves
hot-key Zipfian traffic through a full failure drill —

1. **populate** — the first 40% of the stream lands on a healthy ring
   with R=2 successor replication;
2. **loss** — the hottest node is killed mid-run (crash-loss: its
   contents are gone) and the next 40% is served straight through the
   outage, quorum reads falling back to the surviving replicas;
3. **recover** — the node comes back and the bounded
   :class:`~repro.cluster.ReReplicator` drains its owed replica set
   from its peers, journaled chunk by chunk; the final 20% of the
   stream then runs on the healed ring.

The artifact's ``checks`` block asserts the cluster contract:

* **zero key loss** — after recovery, every key an exact expected
  model says is live is served with the right (freshest) value;
* **served through loss** — no read failed while the node was down
  (R=2 successor placement keeps every key readable under one loss);
* **bounded re-replication** — no drain chunk exceeded its budget, and
  the ``cluster.node_down`` → ``cluster.rereplicate`` →
  ``cluster.node_up`` journal chain is sequence-ordered;
* **Figure-5 ordering survives the hierarchy** — on a strided probe
  stream through the *composed* (node, shard) mapping, the pMod-over-
  pMod stack beats traditional-over-traditional on balance (Eq. 1)
  both on the healthy ring and after quarantine rebalancing shifts the
  dead node's range to its ring successors.

A traced run (``--trace``) adds one stage-coverage check per stack
and caches its cells apart from untraced ones; ``--check`` exits
nonzero unless every check holds (the ``make cluster-check`` gate).
"""

from __future__ import annotations

import sys
from functools import partial
from time import perf_counter
from typing import Dict, Iterable, List, Mapping

import numpy as np

from repro.cluster import Cluster, ClusterRouter, ReplicationConfig
from repro.engine import ExperimentContext, ExperimentSpec, register
from repro.hashing import balance_from_counts
from repro.obs import Journal, get_collector, set_journal
from repro.store import make_traffic, request_keys
from repro.store.selector import canonical_key

#: Routing stacks compared, as "node_scheme+shard_scheme" labels: the
#: all-prime stack, the all-pow2 baseline, and the mixed middle ground.
DEFAULT_STACKS = ("pmod+pmod", "traditional+traditional",
                  "pmod+traditional")

#: Physical fleet geometry; prime-capable levels pay Table-1
#: fragmentation (8 nodes -> 7 usable, 16 shards -> 13).
N_NODES = 8
SHARDS_PER_NODE = 16

#: Minimum fraction of measured op wall time the per-stage attribution
#: must explain (the tracing contract, asserted only when tracing ran).
MIN_STAGE_COVERAGE = 0.9


def _apply(cluster: Cluster, model: Dict[int, int], request) -> None:
    """Serve one request, mirroring its effect into the expected model.

    The model is exact as long as no shard evicts (checked in the
    artifact: the drill sizes capacity so occupancy never evicts), so
    a zero-loss failure always blames replication, never capacity.
    """
    key = canonical_key(request.key)
    if request.op == "put":
        cluster.put(request.key, request.value)
        model[key] = request.value
    elif request.op == "delete":
        cluster.delete(request.key)
        model.pop(key, None)
    else:
        cluster.get(request.key)


def _composed_strided_balance(router: ClusterRouter, n_requests: int,
                              seed: int,
                              exclude: Iterable[int] = ()) -> float:
    """Balance (Eq. 1) of a strided probe through the composed two-level
    map, flattened to (node, shard) slots.  ``exclude`` drops a dead
    node's slots from the histogram so a quarantined ring is graded on
    the capacity actually serving."""
    excluded = set(exclude)
    keys = request_keys(make_traffic("strided", n_requests, seed=seed))
    nodes, shards = router.route_array(keys)
    counts: List[np.ndarray] = []
    for node_id, table in enumerate(router.shard_tables):
        if node_id in excluded:
            continue
        counts.append(np.bincount(shards[nodes == node_id],
                                  minlength=table.n_shards))
    return float(balance_from_counts(np.concatenate(counts)))


def measure(stack: str, n_requests: int, shard_capacity: int = 512,
            assoc: int = 16, replicas: int = 2, budget: int = 128,
            topology: str = "star", seed: int = 0) -> Dict:
    """Run the full drill for one routing stack."""
    node_scheme, shard_scheme = stack.split("+")
    journal = Journal()
    previous = set_journal(journal)
    try:
        cluster = Cluster(
            n_nodes=N_NODES, node_scheme=node_scheme,
            shard_scheme=shard_scheme, shards_per_node=SHARDS_PER_NODE,
            shard_capacity=shard_capacity, assoc=assoc,
            replication=ReplicationConfig(replicas=replicas),
            topology=topology, recovery_budget=budget)
        requests = make_traffic("zipfian", n_requests, seed=seed)
        populate_end = int(n_requests * 0.4)
        loss_end = int(n_requests * 0.8)
        model: Dict[int, int] = {}

        balance_healthy = _composed_strided_balance(
            cluster.router, n_requests, seed)

        # Phase 1 — populate the healthy ring.
        for request in requests[:populate_end]:
            _apply(cluster, model, request)

        # Phase 2 — kill the hottest node, serve straight through.
        victim = int(np.argmax(cluster.node_access_counts()))
        lost_keys = cluster.nodes[victim].occupancy
        failed_before = cluster.counts["failed_reads"]
        latency_mark = len(cluster._latencies)
        cluster.fail_node(victim)
        started = perf_counter()
        for request in requests[populate_end:loss_end]:
            _apply(cluster, model, request)
        loss_elapsed = perf_counter() - started
        loss_window = list(cluster._latencies)[latency_mark:]
        balance_rebalanced = _composed_strided_balance(
            cluster.router.with_node_quarantined([victim]), n_requests,
            seed, exclude=[victim])

        # Phase 3 — recover (bounded drain), then the healed tail.
        drain_started = perf_counter()
        report = cluster.recover_node(victim, budget=budget)
        drain_elapsed = perf_counter() - drain_started
        for request in requests[loss_end:]:
            _apply(cluster, model, request)

        # Verification — exact model, freshest value must serve.
        missing = mismatched = 0
        for key, value in model.items():
            served = cluster.get(key)
            if served is None and value is not None:
                missing += 1
            elif served != value:
                mismatched += 1

        down_events = journal.find("cluster.node_down")
        chunk_events = journal.find("cluster.rereplicate")
        up_events = journal.find("cluster.node_up")
        telemetry = cluster.telemetry()
        attribution = None
        collector = get_collector()
        if collector.enabled:
            # Wall-clock stage decomposition of this stack's sampled
            # ops (route → replica fan-out → quorum settle); the stack
            # label keeps each cell's traces separable on the global
            # collector.
            attribution = collector.analyze(scheme=cluster.scheme)
        return {
            "stack": stack,
            "node_scheme": node_scheme,
            "shard_scheme": shard_scheme,
            "n_nodes": cluster.n_nodes,
            "shards_per_node": cluster.router.shard_tables[0].n_shards,
            "victim": victim,
            "victim_keys_lost": lost_keys,
            "rereplication": report.as_dict(),
            "rereplicate_keys_per_s": (report.copied / drain_elapsed
                                       if drain_elapsed > 0 else 0.0),
            "during_loss": {
                "requests": loss_end - populate_end,
                "rps": ((loss_end - populate_end) / loss_elapsed
                        if loss_elapsed > 0 else 0.0),
                "failed_reads": (cluster.counts["failed_reads"]
                                 - failed_before),
                "sim_p99_s": (float(np.percentile(loss_window, 99))
                              if loss_window else 0.0),
            },
            "zero_loss": {
                "model_size": len(model),
                "missing": missing,
                "mismatched": mismatched,
            },
            "journal_chain": {
                "down_seq": down_events[0].seq if down_events else -1,
                "first_chunk_seq": (chunk_events[0].seq
                                    if chunk_events else -1),
                "up_seq": up_events[0].seq if up_events else -1,
                "chunks": len(chunk_events),
                "max_chunk_moved": max(
                    (e.fields["moved"] for e in chunk_events), default=0),
            },
            "balance_healthy": balance_healthy,
            "balance_rebalanced": balance_rebalanced,
            "balance_recovered": _composed_strided_balance(
                cluster.router, n_requests, seed),
            "quorum_misses": cluster.counts["quorum_misses"],
            "evictions": telemetry.evictions,
            "telemetry": telemetry.as_dict(),
            "attribution": attribution,
        }
    finally:
        set_journal(previous)


def run(n_requests: int = 8000, shard_capacity: int = 512,
        assoc: int = 16, replicas: int = 2, budget: int = 128,
        topology: str = "star", seed: int = 0,
        stacks: List[str] = None) -> Dict[str, Dict]:
    """Full sweep: ``result[stack] = drill measurement payload``."""
    return {
        stack: measure(stack, n_requests, shard_capacity=shard_capacity,
                       assoc=assoc, replicas=replicas, budget=budget,
                       topology=topology, seed=seed)
        for stack in (stacks or DEFAULT_STACKS)
    }


def cluster_checks(cells: Mapping[str, Mapping],
                   traced: bool = False) -> Dict[str, bool]:
    """The cluster contract, one boolean per claim (plus one
    stage-coverage check per stack when the run traced)."""
    checks: Dict[str, bool] = {}
    for stack, cell in cells.items():
        loss = cell["zero_loss"]
        chain = cell["journal_chain"]
        drain = cell["rereplication"]
        checks[f"{stack}_zero_key_loss"] = (
            loss["missing"] == 0 and loss["mismatched"] == 0)
        checks[f"{stack}_served_through_loss"] = (
            cell["during_loss"]["failed_reads"] == 0)
        checks[f"{stack}_chunks_under_budget"] = (
            0 < chain["max_chunk_moved"] <= drain["budget"])
        checks[f"{stack}_journal_chain_ordered"] = (
            0 <= chain["down_seq"] < chain["first_chunk_seq"]
            < chain["up_seq"])
        checks[f"{stack}_no_evictions"] = cell["evictions"] == 0
        if traced:
            attribution = cell.get("attribution") or {}
            checks[f"{stack}_stage_coverage"] = bool(
                attribution.get("n_traces")
                and attribution["coverage"] >= MIN_STAGE_COVERAGE)
    prime = cells.get("pmod+pmod")
    pow2 = cells.get("traditional+traditional")
    if prime is not None and pow2 is not None:
        checks["pmod_stack_beats_pow2_stack_healthy"] = (
            prime["balance_healthy"] < pow2["balance_healthy"])
        checks["pmod_stack_beats_pow2_stack_after_rebalance"] = (
            prime["balance_rebalanced"] < pow2["balance_rebalanced"])
        checks["pmod_stack_beats_pow2_stack_recovered"] = (
            prime["balance_recovered"] < pow2["balance_recovered"])
    return checks


def render(data: Mapping) -> str:
    """One row per stack plus the contract verdict."""
    header = (f"{'stack':<26} {'ring':>7} {'victim':>6} {'copied':>6} "
              f"{'chunks':>6} {'loss rps':>9} {'p99(sim)':>9} "
              f"{'bal healthy':>11} {'bal rebal':>10}")
    lines = [
        f"Cluster drill — node loss + bounded re-replication under live "
        f"zipfian traffic ({data['n_requests']} requests, R="
        f"{data['replicas']}, budget {data['budget']}, "
        f"{data['topology']} fabric)",
        header,
        "-" * len(header),
    ]
    for stack, cell in data["cells"].items():
        drill = cell["during_loss"]
        lines.append(
            f"{stack:<26} "
            f"{cell['n_nodes']:>3}x{cell['shards_per_node']:<3} "
            f"{cell['victim']:>6} {cell['rereplication']['copied']:>6} "
            f"{cell['journal_chain']['chunks']:>6} "
            f"{drill['rps']:>9.0f} {drill['sim_p99_s'] * 1e6:>7.0f}us "
            f"{cell['balance_healthy']:>11.3f} "
            f"{cell['balance_rebalanced']:>10.3f}")
    attributed = [(stack, cell["attribution"])
                  for stack, cell in data["cells"].items()
                  if cell.get("attribution")
                  and cell["attribution"].get("n_traces")]
    if attributed:
        lines.append("")
        lines.append("Per-stage op attribution (sampled wall-clock "
                     "traces):")
        for stack, ana in attributed:
            stages = ", ".join(
                f"{name} {stage['share']:.0%}"
                for name, stage in list(ana["stages"].items())[:4])
            lines.append(
                f"  {stack}: {ana['n_traces']} traces, coverage "
                f"{ana['coverage']:.0%} — {stages}")
    checks = data.get("checks", {})
    if checks:
        verdict = "ok" if all(checks.values()) else "VIOLATED"
        lines.append("")
        lines.append(
            f"Cluster contract: {verdict} "
            f"({sum(checks.values())}/{len(checks)} checks hold — zero "
            f"loss, served through loss, bounded drain, Figure 5 "
            f"ordering on the composed map)")
    return "\n".join(lines)


def _build(ctx: ExperimentContext) -> Dict:
    n_requests = max(10, int(int(ctx.param("requests", 8000))
                             * ctx.config.scale))
    params = {
        "n_requests": n_requests,
        "shard_capacity": int(ctx.param("shard_capacity", 512)),
        "assoc": int(ctx.param("assoc", 16)),
        "replicas": int(ctx.param("replicas", 2)),
        "budget": int(ctx.param("budget", 128)),
        "topology": str(ctx.param("topology", "star")),
        "seed": ctx.config.seed,
    }
    traced = get_collector().enabled
    key_params = dict(params, traced=True) if traced else params
    cells = {
        stack: ctx.cached("cluster-drill", stack, key_params,
                          partial(measure, stack, **params))
        for stack in ctx.param("stacks", DEFAULT_STACKS)
    }
    return {
        "n_requests": n_requests,
        "shard_capacity": params["shard_capacity"],
        "assoc": params["assoc"],
        "replicas": params["replicas"],
        "budget": params["budget"],
        "topology": params["topology"],
        "cells": cells,
        "checks": cluster_checks(cells, traced=traced),
    }


def _render_artifact(artifact: Mapping) -> str:
    return render(artifact["data"])


register(ExperimentSpec(
    name="cluster",
    title="Cluster drill: two-level routing through node loss and "
          "re-replication (extension)",
    build=_build,
    render=_render_artifact,
    uses_simulation=False,
))


if __name__ == "__main__":
    from repro.experiments.__main__ import main
    main(["cluster", *sys.argv[1:]])
