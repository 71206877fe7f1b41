"""The cluster tier: N store nodes, two-level routing, replication.

:class:`Cluster` is the multi-node analogue of
:class:`~repro.store.ShardedStore`: every ``get``/``put``/``delete``
routes through a :class:`~repro.cluster.router.ClusterRouter` (key →
node → shard), fans out to the key's ``R``-node replica set, and pays
for every cross-node hop through the :class:`~repro.cluster.
interconnect.Fabric`'s virtual-time queuing model.  Semantics:

* **writes** carry a monotonically increasing version and land on every
  *writable* replica (a down node just misses the write); fewer than
  ``write_quorum`` acks is a **quorum miss** — journaled
  (``cluster.quorum_miss``), counted, and still applied best-effort to
  the replicas that did respond;
* **reads** consult the whole replica set, serve the freshest version,
  and **read-repair** any reached replica that was missing or stale —
  so a recovered node converges from read traffic as well as from the
  explicit re-replication drain;
* **deletes** apply to every writable replica.  Crash-loss makes this
  safe against resurrection: a down node lost its contents entirely, so
  nothing stale survives to come back.

Node failure and recovery are first-class lifecycle transitions
(:class:`~repro.cluster.node.NodeState`), drivable by hand or by a
seeded :class:`~repro.cluster.faults.NodeFaultInjector` schedule, each
journaled (``cluster.node_down`` / ``cluster.node_up``) with cluster
context.  Recovery streams the node's owed replica set back from its
peers in bounded chunks (:class:`~repro.cluster.rereplicate.
ReReplicator`, ``cluster.rereplicate`` events).

The class also duck-types the store surface the serving layer binds to
(``n_shards``/``epoch``/``scheme``/``shard_for``/``routing`` plus the
three ops), so a :class:`~repro.serve.Frontend` placed over a Cluster
batches **per node** — the frontend routes to nodes, not shards, and
the node's own table finishes the job.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.hashing.analysis import balance_from_counts
from repro.obs import (
    HeavyHitterTracker,
    MetricsRegistry,
    get_collector,
    get_journal,
    get_registry,
)
from repro.obs.attrib import Stage
from repro.cluster.faults import InjectedNodeFault, NodeFaultInjector
from repro.cluster.interconnect import (
    FRONTEND,
    Fabric,
    make_fabric,
    node_endpoint,
)
from repro.cluster.node import NodeState, STATE_CODES, StoreNode
from repro.cluster.router import ClusterRouter
from repro.store import RoutingTable, ShardedStore
from repro.store.routing import StoreKey, canonical_key

__all__ = ["Cluster", "ClusterTelemetry", "ReplicationConfig"]

#: Sentinel distinguishing "not stored" from a stored ``None``.
_MISS = object()

#: Modeled wire cost of a request/ack control message (bytes).
CONTROL_BYTES = 64

#: Modeled wire size of one stored value (bytes).
PAYLOAD_BYTES = 512

#: Sim-latency charged to an op that reached no replica at all (the
#: caller's timeout, in virtual-clock terms).
FAILED_OP_LATENCY_S = 2e-3

#: Bounded window of per-op simulated latencies (tail percentiles).
LATENCY_WINDOW = 1 << 16

#: 1-in-N op sampling for wall-clock stage attribution (the cluster's
#: op path is synchronous and hot; sampling keeps tracing cheap).
TRACE_EVERY = 16

#: Space-saving heavy-hitter slots tracked per cluster (top routed
#: keys, attributed to their primary node).
HOT_KEYS = 8


@dataclass(frozen=True)
class ReplicationConfig:
    """Replica placement and quorum sizes.

    Attributes:
        replicas: copies per key (successor placement on the node ring).
        write_quorum: acks a put needs to count as clean (fewer is a
            journaled quorum miss, still applied best-effort).
        read_quorum: replica responses a get needs; with successor
            placement and a single node down, ``read_quorum=1`` keeps
            every fully-replicated key readable.
    """

    replicas: int = 2
    write_quorum: int = 1
    read_quorum: int = 1

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if not 1 <= self.write_quorum <= self.replicas:
            raise ValueError("write_quorum must be within [1, replicas]")
        if not 1 <= self.read_quorum <= self.replicas:
            raise ValueError("read_quorum must be within [1, replicas]")

    @classmethod
    def majority(cls, replicas: int) -> "ReplicationConfig":
        """R replicas with majority write quorum (R=3 → W=2)."""
        return cls(replicas=replicas, write_quorum=replicas // 2 + 1)


@dataclass(frozen=True)
class ClusterTelemetry:
    """One snapshot of cluster health, load shape, and fabric cost."""

    node_scheme: str
    shard_scheme: str
    n_nodes: int
    live_nodes: int
    epoch: int
    ops: int
    puts: int
    gets: int
    deletes: int
    quorum_misses: int
    failed_reads: int
    read_repairs: int
    replica_errors: int
    rereplicated_keys: int
    occupancy: int
    evictions: int
    node_balance: float
    tail_node_load: float
    sim_p50_s: float
    sim_p99_s: float
    fabric_drops: int
    node_accesses: List[int] = field(default_factory=list)
    node_states: List[str] = field(default_factory=list)
    top_keys: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "node_scheme": self.node_scheme,
            "shard_scheme": self.shard_scheme,
            "n_nodes": self.n_nodes,
            "live_nodes": self.live_nodes,
            "epoch": self.epoch,
            "ops": self.ops,
            "puts": self.puts,
            "gets": self.gets,
            "deletes": self.deletes,
            "quorum_misses": self.quorum_misses,
            "failed_reads": self.failed_reads,
            "read_repairs": self.read_repairs,
            "replica_errors": self.replica_errors,
            "rereplicated_keys": self.rereplicated_keys,
            "occupancy": self.occupancy,
            "evictions": self.evictions,
            "node_balance": self.node_balance,
            "tail_node_load": self.tail_node_load,
            "sim_p50_s": self.sim_p50_s,
            "sim_p99_s": self.sim_p99_s,
            "fabric_drops": self.fabric_drops,
            "node_accesses": list(self.node_accesses),
            "node_states": list(self.node_states),
            "top_keys": list(self.top_keys),
        }


class Cluster:
    """N sharded store nodes behind a two-level prime router.

    Args:
        n_nodes: physical node count; prime-capable node schemes use
            the largest prime below a power of two (Table 1's
            fragmentation, one level up), exact primes are honored.
        node_scheme: outer key → node scheme
            (:data:`~repro.store.routing.STORE_SCHEMES`).
        shard_scheme: inner key → shard scheme for every node's store.
        shards_per_node: physical shard count per node (same ladder
            rules as ``n_nodes``).
        shard_capacity / assoc: per-shard geometry, passed through to
            each node's :class:`ShardedStore`.
        replication: replica placement and quorum config.
        topology: fabric topology name (``"star"`` / ``"fat-tree"``)
            when no explicit ``fabric`` is given.
        fabric: explicit :class:`Fabric` (overrides ``topology``).
        tick_s: virtual-clock advance per submitted op — the offered
            inter-arrival gap; smaller ticks congest the fabric.
        injector: optional seeded node-fault source; its kill/recover
            schedule is applied at op boundaries.
        recovery_budget: per-chunk key budget for the re-replication
            drain run by :meth:`recover_node`.
    """

    def __init__(self, n_nodes: int = 8, node_scheme: str = "pmod",
                 shard_scheme: str = "pmod", shards_per_node: int = 16,
                 shard_capacity: int = 512, assoc: int = 8,
                 replication: Optional[ReplicationConfig] = None,
                 topology: str = "star", fabric: Optional[Fabric] = None,
                 tick_s: float = 50e-6,
                 injector: Optional[NodeFaultInjector] = None,
                 recovery_budget: int = 128,
                 registry: Optional[MetricsRegistry] = None):
        if tick_s <= 0:
            raise ValueError("tick_s must be positive")
        if recovery_budget < 1:
            raise ValueError("recovery_budget must be >= 1")
        node_table = RoutingTable.create(node_scheme, n_nodes)
        self.nodes: List[StoreNode] = [
            StoreNode(i, ShardedStore(shards_per_node, shard_scheme,
                                      shard_capacity=shard_capacity,
                                      assoc=assoc))
            for i in range(node_table.n_shards)
        ]
        self.router = ClusterRouter(
            node_table, [node.store.routing for node in self.nodes])
        #: The stack label, outer+inner (``"pmod+pmod"``); quarantine
        #: derives routers over the same two schemes, so it is fixed.
        self.scheme = (f"{self.router.node_scheme}+"
                       f"{self.router.shard_scheme}")
        self.replication = replication or ReplicationConfig()
        if self.replication.replicas > self.n_nodes:
            raise ValueError(
                f"cannot place {self.replication.replicas} replicas on "
                f"{self.n_nodes} usable nodes")
        self.fabric = fabric if fabric is not None else make_fabric(
            topology, self.n_nodes)
        #: fabric endpoint name of each node, by node id.
        self._endpoints = [node_endpoint(i) for i in range(self.n_nodes)]
        self.tick_s = tick_s
        self.injector = injector
        self.recovery_budget = recovery_budget
        self._now_s = 0.0
        self._version = 0
        self._op_index = 0
        #: successful replica contacts per node; a list, since an int
        #: increment costs a fraction of a numpy scalar's.
        self._node_accesses = [0] * self.n_nodes
        self._latencies: deque = deque(maxlen=LATENCY_WINDOW)
        self.counts: Dict[str, int] = {
            "ops": 0, "puts": 0, "gets": 0, "deletes": 0,
            "quorum_misses": 0, "failed_reads": 0, "read_repairs": 0,
            "replica_errors": 0, "rereplicated_keys": 0,
        }
        self._registry = get_registry() if registry is None else registry
        self._observed = self._registry.enabled
        self._hitters = (HeavyHitterTracker(k=HOT_KEYS)
                         if self._observed else None)
        #: per-op countdowns to the next sampled op for
        #: :meth:`_maybe_trace` (a single global index would alias with
        #: alternating op patterns and starve one op type of traces
        #: entirely); 1 = the next op of that kind is sampled.
        self._trace_left: Dict[str, int] = {"get": 1, "put": 1,
                                            "delete": 1}
        self._bind_instruments()

    def _bind_instruments(self) -> None:
        registry = self._registry
        scheme = self.scheme
        # Keyed by the op's ``counts`` key, which ``_begin_op`` gets.
        self._op_counters = {
            op + "s": registry.counter("cluster.requests", scheme=scheme,
                                       op=op)
            for op in ("get", "put", "delete")
        }
        self._quorum_counter = registry.counter("cluster.quorum_misses",
                                                scheme=scheme)
        self._repair_counter = registry.counter("cluster.read_repairs",
                                                scheme=scheme)
        self._replica_error_counter = registry.counter(
            "cluster.replica_errors", scheme=scheme)
        self._failure_counter = registry.counter("cluster.node_failures",
                                                 scheme=scheme)
        self._drop_counter = registry.counter("cluster.link.drops",
                                              scheme=scheme)
        self._latency_hist = registry.histogram("cluster.op.sim_latency_s",
                                                scheme=scheme)
        self._state_gauges = [
            registry.gauge("cluster.node.state", scheme=scheme, node=i)
            for i in range(self.n_nodes)
        ]

    # -- identity (Frontend-compatible surface) -------------------------

    @property
    def n_nodes(self) -> int:
        return self.router.n_nodes

    @property
    def n_shards(self) -> int:
        """Frontend compatibility: the outer routing width is the node
        count — a frontend over a cluster batches per *node*."""
        return self.router.n_nodes

    @property
    def epoch(self) -> int:
        return self.router.epoch

    @property
    def routing(self) -> RoutingTable:
        """The outer (node-level) routing table."""
        return self.router.node_table

    def shard_for(self, key: StoreKey) -> int:
        """Frontend compatibility: outer-level routing only (the queue
        a frontend batches this key onto is the node's)."""
        return self.router.node(key)

    @property
    def live_nodes(self) -> List[int]:
        return [n.node_id for n in self.nodes if n.live]

    @property
    def virtual_now_s(self) -> float:
        """The cluster's virtual clock (advances ``tick_s`` per op)."""
        return self._now_s

    @property
    def last_latency_s(self) -> float:
        """Simulated latency of the most recent op.  A phase's tail is
        taken from its own ops this way: the latency window holds only
        the last :data:`LATENCY_WINDOW` ops."""
        return self._latencies[-1]

    def node(self, node_id: int) -> StoreNode:
        return self.nodes[node_id]

    def __len__(self) -> int:
        return sum(node.occupancy for node in self.nodes)

    # -- clock / fault schedule -----------------------------------------

    def _maybe_trace(self, op: str) -> Optional[float]:
        """The wall-clock start of 1-in-:data:`TRACE_EVERY` ops of each
        kind while the trace collector is enabled (None otherwise).

        The cluster's *simulated* latency lives on the virtual clock;
        the trace measures the real wall time the synchronous op path
        spends in routing, replica fan-out, and quorum settling, so
        the critical-path analyzer can decompose the stack's own cost.
        The op crosses no thread or task boundary, so it times its
        stages itself and hands the finished trace over once
        (:meth:`_keep_trace`).
        """
        if not get_collector().enabled:
            return None
        left = self._trace_left[op]
        if left > 1:
            self._trace_left[op] = left - 1
            return None
        self._trace_left[op] = TRACE_EVERY
        return perf_counter()

    def _keep_trace(self, op: str, key: StoreKey, start_s: float,
                    fan_from: float, settle_from: float, status: str,
                    replicas: int, contact: Dict[str, Any],
                    latency: float) -> None:
        """Record a sampled op's trace: route, contact and settle
        stages, back to back from ``start_s`` to now."""
        end = perf_counter()
        get_collector().record(
            op, self.scheme, status, start_s, end - start_s,
            (Stage("route", 0.0, fan_from - start_s,
                   {"replicas": replicas}),
             Stage("contact", fan_from - start_s, settle_from - fan_from,
                   contact),
             Stage("settle", settle_from - start_s, end - settle_from,
                   {"sim_latency_s": latency})),
            {"key": str(key), "epoch": self.router.node_table.epoch_id})

    def _begin_op(self, tally: str) -> float:
        """Advance the virtual clock, apply due fault-schedule
        transitions, and count the op under ``tally``, its ``counts``
        key (``"gets"``); returns its arrival time."""
        if self.injector is not None:
            for action, node_id in self.injector.scheduled(self._op_index):
                if action == "fail":
                    self.fail_node(node_id)
                else:
                    self.recover_node(node_id)
        self._op_index += 1
        now = self._now_s
        self._now_s = now + self.tick_s
        counts = self.counts
        counts["ops"] += 1
        counts[tally] += 1
        if self._observed:
            self._op_counters[tally].inc()
        return now

    def _finish_op(self, now_s: float, completions: List[float],
                   quorum: int) -> float:
        """Sim latency of one op: the quorum-th fastest replica
        completion (or the failed-op penalty when nothing responded)."""
        reached = len(completions)
        if reached:
            completions.sort()
            latency = completions[
                (quorum if quorum < reached else reached) - 1] - now_s
        else:
            latency = FAILED_OP_LATENCY_S
        self._latencies.append(latency)
        if self._observed:
            self._latency_hist.observe(latency)
        return latency

    def _replica_error(self) -> None:
        self.counts["replica_errors"] += 1
        if self._observed:
            self._replica_error_counter.inc()

    def _fan_out(self, placement: List[int], now_s: float,
                 request_bytes: int, response_bytes: int
                 ) -> Tuple[List[StoreNode], List[float]]:
        """One round trip to each live replica in ``placement``;
        returns the nodes that answered and their completion times.

        A down node serves neither reads nor writes, so one ``live``
        check serves both.  A replica is unreachable this op on an
        injected error or a fabric drop.  Callers then call each
        answering ``node.store`` directly: the liveness check is the
        one the node's own ops would repeat."""
        nodes = self.nodes
        endpoints = self._endpoints
        accesses = self._node_accesses
        injector = self.injector
        fabric = self.fabric
        reached: List[StoreNode] = []
        completions: List[float] = []
        for node_id in placement:
            node = nodes[node_id]
            if not node.live:
                continue
            if injector is not None:
                try:
                    injector.before_replica_op(node_id)
                except InjectedNodeFault:
                    self._replica_error()
                    continue
            done = fabric.round_trip(
                FRONTEND, endpoints[node_id], request_bytes,
                response_bytes, now_s, node.service_now_s)
            if done is None:
                self.counts["replica_errors"] += 1
                if self._observed:
                    self._drop_counter.inc()
                continue
            accesses[node_id] += 1
            reached.append(node)
            completions.append(done)
        return reached, completions

    def _quorum_miss(self, op: str, reached: int, needed: int) -> None:
        self.counts["quorum_misses"] += 1
        if self._observed:
            self._quorum_counter.inc()
        get_journal().emit("cluster.quorum_miss", op=op, reached=reached,
                           needed=needed, live_nodes=len(self.live_nodes),
                           epoch=self.epoch)

    # -- operations ------------------------------------------------------

    def put(self, key: StoreKey, value: Any) -> int:
        """Replicated write; returns the ack count (< ``write_quorum``
        means a journaled quorum miss, still applied best-effort)."""
        traced = self._maybe_trace("put")
        now = self._begin_op("puts")
        canonical = canonical_key(key)
        self._version += 1
        stamped = (self._version, value)
        placement = self.router.replicas(canonical,
                                         self.replication.replicas)
        if self._hitters is not None:
            self._hitters.offer(str(canonical), placement[0])
        if traced is not None:
            fan_from = perf_counter()
        reached, completions = self._fan_out(placement, now,
                                             PAYLOAD_BYTES, CONTROL_BYTES)
        for node in reached:
            node.store.put(canonical, stamped)
        acks = len(reached)
        if traced is not None:
            settle_from = perf_counter()
        clean = acks >= self.replication.write_quorum
        if not clean:
            self._quorum_miss("put", acks, self.replication.write_quorum)
        latency = self._finish_op(now, completions,
                                  self.replication.write_quorum)
        if traced is not None:
            self._keep_trace(
                "put", key, traced, fan_from, settle_from,
                "ok" if clean else "quorum_miss", len(placement),
                {"acks": acks, "replicas": len(placement)}, latency)
        return acks

    def get(self, key: StoreKey, default: Any = None) -> Any:
        """Quorum read with read-repair; returns the freshest value."""
        traced = self._maybe_trace("get")
        now = self._begin_op("gets")
        canonical = canonical_key(key)
        placement = self.router.replicas(canonical,
                                         self.replication.replicas)
        if self._hitters is not None:
            self._hitters.offer(str(canonical), placement[0])
        if traced is not None:
            fan_from = perf_counter()
        reached, completions = self._fan_out(placement, now, CONTROL_BYTES,
                                             PAYLOAD_BYTES)
        freshest: Optional[tuple] = None
        copies = []
        for node in reached:
            copy = node.store.get(canonical, _MISS)
            copies.append((node, copy))
            if copy is not _MISS and (freshest is None
                                      or copy[0] > freshest[0]):
                freshest = copy
        if traced is not None:
            settle_from = perf_counter()
        quorate = len(reached) >= self.replication.read_quorum
        if not quorate:
            self._quorum_miss("get", len(reached),
                              self.replication.read_quorum)
            if not reached:
                self.counts["failed_reads"] += 1
        if freshest is not None:
            # Read repair: any reached replica missing the freshest
            # copy converges now, not just at the recovery drain.
            for node, copy in copies:
                if copy is _MISS or copy[0] < freshest[0]:
                    node.store.put(canonical, freshest)
                    self.counts["read_repairs"] += 1
                    if self._observed:
                        self._repair_counter.inc()
        latency = self._finish_op(now, completions,
                                  self.replication.read_quorum)
        if traced is not None:
            self._keep_trace(
                "get", key, traced, fan_from, settle_from,
                "ok" if quorate else "quorum_miss", len(placement),
                {"reached": len(reached), "replicas": len(placement)},
                latency)
        return default if freshest is None else freshest[1]

    def delete(self, key: StoreKey) -> bool:
        """Delete from every writable replica; True if any copy died."""
        traced = self._maybe_trace("delete")
        now = self._begin_op("deletes")
        canonical = canonical_key(key)
        placement = self.router.replicas(canonical,
                                         self.replication.replicas)
        if self._hitters is not None:
            self._hitters.offer(str(canonical), placement[0])
        if traced is not None:
            fan_from = perf_counter()
        reached, completions = self._fan_out(placement, now, CONTROL_BYTES,
                                             CONTROL_BYTES)
        deleted = False
        for node in reached:
            deleted = node.store.delete(canonical) or deleted
        if traced is not None:
            settle_from = perf_counter()
        latency = self._finish_op(now, completions,
                                  self.replication.write_quorum)
        if traced is not None:
            self._keep_trace("delete", key, traced, fan_from, settle_from,
                             "ok", len(placement),
                             {"replicas": len(placement)}, latency)
        return deleted

    # -- node lifecycle --------------------------------------------------

    def _publish_state(self, node: StoreNode) -> None:
        if self._observed:
            self._state_gauges[node.node_id].set(
                STATE_CODES[node.state])

    def fail_node(self, node_id: int) -> StoreNode:
        """Crash one node (contents lost); journaled."""
        node = self.nodes[node_id]
        node.fail()
        self.counts.setdefault("node_failures", 0)
        self.counts["node_failures"] += 1
        if self._observed:
            self._failure_counter.inc()
        self._publish_state(node)
        get_journal().emit("cluster.node_down", node=node_id,
                           live_nodes=len(self.live_nodes),
                           epoch=self.epoch, op_index=self._op_index)
        return node

    def degrade_node(self, node_id: int) -> StoreNode:
        node = self.nodes[node_id].degrade()
        self._publish_state(node)
        return node

    def restore_node(self, node_id: int) -> StoreNode:
        node = self.nodes[node_id].restore()
        self._publish_state(node)
        return node

    def recover_node(self, node_id: int,
                     budget: Optional[int] = None):
        """Bring a down node back: enter ``recovering``, drain the
        owed replica set from peers in bounded chunks, then rejoin.
        Returns the :class:`~repro.cluster.rereplicate.
        ReReplicationReport`."""
        from repro.cluster.rereplicate import ReReplicator

        node = self.nodes[node_id]
        node.begin_recovery()
        self._publish_state(node)
        report = ReReplicator(
            self, node_id,
            budget=self.recovery_budget if budget is None else budget,
            registry=self._registry).run()
        node.complete_recovery()
        self._publish_state(node)
        get_journal().emit("cluster.node_up", node=node_id,
                           copied=report.copied,
                           occupancy=node.occupancy,
                           live_nodes=len(self.live_nodes),
                           epoch=self.epoch)
        return report

    def quarantine_node(self, node_ids) -> ClusterRouter:
        """Route around nodes long-term: outer-table quarantine, epoch
        bump, placement shifts to the survivors (rebalancing)."""
        self.router = self.router.with_node_quarantined(node_ids)
        return self.router

    def heal_node(self, node_ids=None) -> ClusterRouter:
        """Lift node quarantine (all by default); epoch bump."""
        self.router = self.router.without_node_quarantined(node_ids)
        return self.router

    # -- telemetry -------------------------------------------------------

    def node_access_counts(self) -> np.ndarray:
        """Per-node successful replica contacts (the load histogram)."""
        return np.array(self._node_accesses, dtype=np.int64)

    def node_balance(self) -> float:
        """Balance (Eq. 1) of the per-node load histogram."""
        counts = self.node_access_counts()
        if counts.sum() == 0:
            return math.nan
        return float(balance_from_counts(counts))

    def heavy_hitters(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """Top routed keys (space-saving estimate), heaviest first;
        ``where`` is the key's primary node.  Empty when unobserved."""
        if self._hitters is None:
            return []
        return self._hitters.top(n)

    def sim_latency_percentiles(self) -> Dict[str, float]:
        if not self._latencies:
            return {"p50": 0.0, "p99": 0.0}
        arr = np.array(self._latencies)
        return {"p50": float(np.percentile(arr, 50)),
                "p99": float(np.percentile(arr, 99))}

    def telemetry(self) -> ClusterTelemetry:
        counts = self.node_access_counts()
        total = int(counts.sum())
        ideal = total / self.n_nodes if total else 0.0
        percentiles = self.sim_latency_percentiles()
        evictions = sum(
            sum(s.stats.evictions for s in node.store.shards)
            for node in self.nodes)
        telemetry = ClusterTelemetry(
            node_scheme=self.router.node_scheme,
            shard_scheme=self.router.shard_scheme,
            n_nodes=self.n_nodes,
            live_nodes=len(self.live_nodes),
            epoch=self.epoch,
            ops=self.counts["ops"],
            puts=self.counts["puts"],
            gets=self.counts["gets"],
            deletes=self.counts["deletes"],
            quorum_misses=self.counts["quorum_misses"],
            failed_reads=self.counts["failed_reads"],
            read_repairs=self.counts["read_repairs"],
            replica_errors=self.counts["replica_errors"],
            rereplicated_keys=self.counts["rereplicated_keys"],
            occupancy=len(self),
            evictions=evictions,
            node_balance=self.node_balance(),
            tail_node_load=float(counts.max() / ideal) if ideal else 0.0,
            sim_p50_s=percentiles["p50"],
            sim_p99_s=percentiles["p99"],
            fabric_drops=self.fabric.drops,
            node_accesses=counts.tolist(),
            node_states=[n.state.value for n in self.nodes],
            top_keys=self.heavy_hitters(),
        )
        if self._observed:
            self._registry.gauge("cluster.node_balance",
                                 scheme=self.scheme).set(
                telemetry.node_balance)
            elapsed = self._now_s
            for row in self.fabric.stats(elapsed).get("links", []):
                if "utilization" in row:
                    self._registry.gauge("cluster.link.utilization",
                                         link=row["name"]).set(
                        row["utilization"])
        return telemetry

    def __repr__(self) -> str:
        return (f"Cluster({self.scheme!r}, nodes={self.n_nodes} "
                f"({len(self.live_nodes)} live), "
                f"R={self.replication.replicas}, epoch={self.epoch}, "
                f"occupancy={len(self)})")
