"""Bounded re-replication: stream a recovered node's keys back.

When a node crashes it loses its contents (crash-loss); when it comes
back it owes the cluster every key whose replica set includes it.  The
:class:`ReReplicator` is the node-tier sibling of the store's
:class:`~repro.store.migrate.Migrator`: the same bounded-budget step
loop, one level up — instead of moving keys between shard fleets inside
one store, it copies a node's owed replica set back from its live
peers, at most ``budget`` keys per :meth:`step`, journaling one
``cluster.rereplicate`` event per chunk so the drain is observable and
resumable in the event stream.

Two properties make the owed set recomputable rather than logged:

* replica **placement is a pure function of (key, node table)** —
  :meth:`~repro.cluster.router.ClusterRouter.replicas` never consults
  up/down state — so scanning the live peers for keys whose placement
  includes the recovering node reconstructs exactly what was lost;
* values are **versioned**, so when two peers hold different copies
  (a write raced the crash) the freshest wins, and keys the recovering
  node already reacquired via read-repair or fresh writes are skipped
  rather than clobbered.

Copies are priced on the :class:`~repro.cluster.interconnect.Fabric`
as peer → node bulk transfers (one per source peer per chunk), so a
recovery drain congests the same links serving traffic is using —
which is why the drain is budgeted at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.obs import MetricsRegistry, get_journal, get_registry
from repro.cluster.engine import PAYLOAD_BYTES
from repro.cluster.interconnect import node_endpoint
from repro.cluster.node import NodeState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.engine import Cluster

__all__ = ["ReReplicationReport", "ReReplicator"]

#: Sentinel for "target does not hold this key".
_MISS = object()


@dataclass(frozen=True)
class ReReplicationReport:
    """Outcome of one full re-replication drain."""

    node: int
    copied: int  #: keys streamed back to the recovering node
    skipped: int  #: owed keys the node already held fresh enough
    scanned: int  #: peer entries examined while computing the owed set
    chunks: int  #: bounded steps the drain took
    budget: int
    bytes_moved: int  #: modeled payload bytes charged to the fabric

    def as_dict(self) -> Dict[str, int]:
        return {
            "node": self.node,
            "copied": self.copied,
            "skipped": self.skipped,
            "scanned": self.scanned,
            "chunks": self.chunks,
            "budget": self.budget,
            "bytes_moved": self.bytes_moved,
        }


class ReReplicator:
    """Streams one recovering node's owed replica set from its peers.

    Args:
        cluster: the owning :class:`~repro.cluster.engine.Cluster`.
        node_id: the recovering node (must be in the ``recovering``
            state — the window where it is writable again).
        budget: max keys copied per :meth:`step`.
    """

    def __init__(self, cluster: "Cluster", node_id: int,
                 budget: int = 128,
                 registry: Optional[MetricsRegistry] = None):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.cluster = cluster
        self.node_id = node_id
        self.budget = budget
        node = cluster.nodes[node_id]
        if node.state is not NodeState.RECOVERING:
            raise ValueError(
                f"node {node_id} is {node.state.value}, not recovering")
        self._registry = get_registry() if registry is None else registry
        self._counter = self._registry.counter(
            "cluster.rereplicated_keys", node=node_id)
        self.copied = 0
        self.skipped = 0
        self.scanned = 0
        self.chunks = 0
        self.bytes_moved = 0
        #: owed (key, source node id, (version, value)) rows in key
        #: order; computed once up front — placement is liveness-
        #: independent, so the owed set is stable for the whole drain.
        #: ``_next`` is the first row not yet copied.
        self._pending: List[Tuple[int, int, Tuple[int, Any]]] = (
            self._owed())
        self._next = 0

    def _owed(self) -> List[Tuple[int, int, Tuple[int, Any]]]:
        """Scan live peers for keys whose replica placement includes
        the recovering node; freshest version wins across peers, and
        keys the node already holds at least as fresh are skipped."""
        cluster = self.cluster
        replicas = cluster.replication.replicas
        target = cluster.nodes[self.node_id]
        freshest: Dict[int, Tuple[int, Tuple[int, Any]]] = {}
        for peer in cluster.nodes:
            if peer.node_id == self.node_id or not peer.live:
                continue
            for shard in peer.store.shards:
                for key, stamped in shard.items():
                    self.scanned += 1
                    if self.node_id not in cluster.router.replicas(
                            key, replicas):
                        continue
                    held = freshest.get(key)
                    if held is None or stamped[0] > held[1][0]:
                        freshest[key] = (peer.node_id, stamped)
        pending: List[Tuple[int, int, Tuple[int, Any]]] = []
        for key, (source, stamped) in sorted(freshest.items()):
            mine = target.store.get(key, _MISS)
            if mine is not _MISS and mine[0] >= stamped[0]:
                self.skipped += 1
                continue
            pending.append((key, source, stamped))
        return pending

    @property
    def remaining(self) -> int:
        return len(self._pending) - self._next

    def step(self) -> int:
        """Copy up to ``budget`` owed keys; returns the count moved
        (0 = drain complete).  Each chunk charges one bulk transfer per
        source peer to the fabric and journals ``cluster.rereplicate``.
        A cursor walks the owed rows, so a chunk costs O(budget)."""
        start = self._next
        if start == len(self._pending):
            return 0
        cluster = self.cluster
        self._next = min(start + self.budget, len(self._pending))
        chunk = self._pending[start:self._next]
        target = cluster.nodes[self.node_id]
        per_source: Dict[int, int] = {}
        for key, source, stamped in chunk:
            target.put(key, stamped)
            per_source[source] = per_source.get(source, 0) + PAYLOAD_BYTES
        # Bulk transfers congest the same links serving traffic uses;
        # a tail-drop here is absorbed as (un-modeled) retry, the copy
        # itself already happened above.
        now = cluster.virtual_now_s
        for source, n_bytes in per_source.items():
            cluster.fabric.transfer(node_endpoint(source),
                                    node_endpoint(self.node_id),
                                    n_bytes, now)
            self.bytes_moved += n_bytes
        cluster._now_s += cluster.tick_s
        moved = len(chunk)
        self.copied += moved
        self.chunks += 1
        cluster.counts["rereplicated_keys"] += moved
        self._counter.inc(moved)
        get_journal().emit("cluster.rereplicate", node=self.node_id,
                           moved=moved, total_moved=self.copied,
                           remaining=self.remaining, budget=self.budget)
        return moved

    def run(self) -> ReReplicationReport:
        """Drain to completion; returns the final report."""
        while self.step():
            pass
        return self.report()

    def report(self) -> ReReplicationReport:
        return ReReplicationReport(
            node=self.node_id, copied=self.copied, skipped=self.skipped,
            scanned=self.scanned, chunks=self.chunks, budget=self.budget,
            bytes_moved=self.bytes_moved)

    def __repr__(self) -> str:
        return (f"ReReplicator(node={self.node_id}, budget={self.budget}, "
                f"copied={self.copied}, remaining={self.remaining})")
