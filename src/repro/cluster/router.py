"""Two-level prime routing: key → node, then key → shard in the node.

:class:`ClusterRouter` composes two :class:`~repro.store.routing.
RoutingTable` levels.  The outer table picks the **node** (the paper's
indexing math applied one level up the hierarchy — slice selection, in
sliced-LLC terms); each node's own table then picks the **shard** inside
that node's :class:`~repro.store.ShardedStore`.  Both levels hash the
same canonical 64-bit key, so the composed map ``key → (node, shard)``
inherits the schemes' algebra:

* **pMod over pMod** with distinct primes ``p_n`` (nodes) and ``p_s``
  (shards) is, by CRT, one modulo by ``p_n · p_s`` — sequence invariant
  (§3 Property 2) and conflict-free on exactly the strides the paper
  proves for one level;
* **pow2 over pow2** is one modulo by the larger power of two — also
  invariant, but carrying the full power-of-two conflict pathology at
  *both* levels simultaneously (the same low key bits select node and
  shard, so a bad stride hot-spots one shard of one node);
* mixed stacks sit in between, which is the design space the
  ``cluster`` experiment sweeps.

**Replication placement** is successor placement on the node ring: a
key's replica set is its primary node plus the next ``r - 1`` distinct
non-quarantined nodes clockwise.  The router is immutable, so it lays
the ring out once: the non-quarantined node ids in clockwise order,
written twice, plus each node's offset into that list.  A replica set
is then one route and one slice, ``ring[offset[primary]:][:r]``, with
``r`` capped at the healthy count — O(n) memory for the table, no walk
per op.  Placement is a pure function of ``(key, node table)`` —
independent of which nodes are currently down — so a recovering node
can recompute exactly which keys it owes from its peers' contents.

Node **quarantine** reuses the routing layer's probe semantics: the
outer table is derived with :meth:`~repro.store.routing.RoutingTable.
with_quarantined`, bumping the cluster epoch, and both scalar and
vectorized routing agree on the re-routed assignment.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.store.routing import RoutingTable
from repro.store.routing import StoreKey, canonical_key

__all__ = ["ClusterRouter", "ComposedIndexing"]


class ComposedIndexing:
    """Flat analysis adapter over a :class:`ClusterRouter`.

    Duck-types the :mod:`repro.hashing.analysis` surface (``n_sets`` /
    ``index`` / ``index_array``) by flattening ``(node, shard)`` to one
    slot id (``node_offset[node] + shard``), so balance, concentration
    and sequence-invariance checkers accept the *composed* two-level
    mapping unchanged.  Slot ids are dense over usable shards — no
    holes for fragmented (pMod) fleets — so Eq. 1 over flat counts is
    the honest composed balance.
    """

    def __init__(self, router: "ClusterRouter"):
        self._router = router
        counts = [t.n_shards for t in router.shard_tables]
        self._offsets = np.concatenate(
            ([0], np.cumsum(counts[:-1]))).astype(np.int64)
        self.n_sets = int(sum(counts))
        self.n_sets_physical = self.n_sets
        self.name = (f"{router.node_scheme}x{router.shard_scheme} "
                     f"({router.n_nodes} nodes)")

    def index(self, block_address: int) -> int:
        node, shard = self._router.route(block_address)
        return int(self._offsets[node]) + shard

    def index_array(self, block_addresses: np.ndarray) -> np.ndarray:
        nodes, shards = self._router.route_array(block_addresses)
        return self._offsets[nodes] + shards


class ClusterRouter:
    """Composes a node-level table with one shard table per node.

    Args:
        node_table: the outer key → node :class:`RoutingTable`; its
            ``n_shards`` is the usable node count, its quarantine set
            the nodes currently routed around, its ``epoch_id`` the
            cluster routing epoch.
        shard_tables: inner key → shard table for each node, indexed by
            node id (one per usable node).
    """

    def __init__(self, node_table: RoutingTable,
                 shard_tables: Sequence[RoutingTable]):
        if len(shard_tables) != node_table.n_shards:
            raise ValueError(
                f"need one shard table per node: {node_table.n_shards} "
                f"nodes, {len(shard_tables)} tables")
        self.node_table = node_table
        self.shard_tables = list(shard_tables)
        # The placement table: healthy node ids clockwise, doubled so a
        # replica set never wraps, and each healthy node's offset into
        # it (a quarantined node is never a primary, so it has none).
        healthy = node_table.healthy_shards()
        self._ring = healthy + healthy
        self._healthy = len(healthy)
        self._offsets: List[Optional[int]] = [None] * node_table.n_shards
        for offset, node in enumerate(healthy):
            self._offsets[node] = offset

    # -- identity -------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Usable node count (pMod leaves part of a pow2 fleet idle)."""
        return self.node_table.n_shards

    @property
    def node_scheme(self) -> str:
        return self.node_table.scheme

    @property
    def shard_scheme(self) -> str:
        return self.shard_tables[0].scheme

    @property
    def epoch(self) -> int:
        """Cluster routing epoch (the outer table's epoch id)."""
        return self.node_table.epoch_id

    @property
    def quarantined_nodes(self) -> frozenset:
        return self.node_table.quarantined

    # -- routing --------------------------------------------------------

    def node(self, key: StoreKey) -> int:
        """Node id ``key`` routes to (honoring node quarantine)."""
        return self.node_table.shard(key)

    def route(self, key: StoreKey) -> Tuple[int, int]:
        """``(node, shard)`` for one key under the current epoch."""
        canonical = canonical_key(key)
        node = self.node_table.shard(canonical)
        return node, self.shard_tables[node].shard(canonical)

    def route_array(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized two-level routing of an integer key batch.

        The inner level dispatches per distinct node, so a batch costs
        one vectorized outer pass plus one inner pass per *occupied*
        node — not per key.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        nodes = self.node_table.shard_array(keys)
        shards = np.empty(len(keys), dtype=np.int64)
        for node in np.unique(nodes):
            mask = nodes == node
            shards[mask] = self.shard_tables[int(node)].shard_array(
                keys[mask])
        return nodes.astype(np.int64), shards

    def replicas(self, key: StoreKey, r: int) -> List[int]:
        """The ``r``-node replica set: primary plus clockwise
        successors on the node ring, skipping quarantined slots.

        Deterministic in ``(key, node table)`` only — node up/down
        state never shifts placement, which is what lets a recovering
        node recompute its owed keys.  ``r`` is capped at the
        non-quarantined node count.  One route and one slice of the
        placement table built in ``__init__``.
        """
        if r < 1:
            raise ValueError("replica count must be >= 1")
        if r > self._healthy:
            r = self._healthy
        start = self._offsets[self.node_table.route(canonical_key(key))]
        return self._ring[start:start + r]

    # -- analysis / derivation -----------------------------------------

    @property
    def composed(self) -> ComposedIndexing:
        """Flat (node, shard) → slot adapter for the analysis layer."""
        return ComposedIndexing(self)

    def with_node_quarantined(self,
                              node_ids: Iterable[int]) -> "ClusterRouter":
        """Successor router routing around ``node_ids`` (outer epoch
        bump; shard tables untouched)."""
        table = self.node_table.with_quarantined(node_ids)
        if table is self.node_table:
            return self
        return ClusterRouter(table, self.shard_tables)

    def without_node_quarantined(
            self, node_ids: Iterable[int] = None) -> "ClusterRouter":
        """Successor router healing some (default all) quarantined
        nodes."""
        table = self.node_table.without_quarantined(node_ids)
        if table is self.node_table:
            return self
        return ClusterRouter(table, self.shard_tables)

    def describe(self) -> Dict[str, object]:
        return {
            "node_scheme": self.node_scheme,
            "shard_scheme": self.shard_scheme,
            "n_nodes": self.n_nodes,
            "epoch": self.epoch,
            "quarantined_nodes": sorted(self.node_table.quarantined),
            "shards_per_node": [t.n_shards for t in self.shard_tables],
        }

    def __repr__(self) -> str:
        return (f"ClusterRouter({self.node_scheme!r} over "
                f"{self.n_nodes} nodes -> {self.shard_scheme!r} over "
                f"{self.shard_tables[0].n_shards} shards, "
                f"epoch={self.epoch})")
