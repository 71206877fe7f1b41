"""Store nodes: one `ShardedStore` plus an explicit failure lifecycle.

A :class:`StoreNode` wraps one :class:`~repro.store.ShardedStore` (the
inner level of the two-level prime router) behind a small state
machine::

    up ──► degraded ──► up          (slow NIC / hot neighbor; serves,
     │         │                     but every op pays a penalty)
     └─────────┴──► down ──► recovering ──► up

``down`` models a crash: the node's in-memory contents are **lost** —
that is what makes replication and re-replication load-bearing rather
than decorative.  ``recovering`` is the window where the
:class:`~repro.cluster.rereplicate.ReReplicator` streams the node's
replica set back from its peers; the node accepts writes (both repair
copies and fresh traffic) and serves reads best-effort (a miss during
recovery falls through to the other replicas at the cluster layer).

State transitions are validated — a node cannot jump from ``down``
straight to ``up`` — and each one also sets the two plain attributes
the cluster's op path reads per replica (``live`` and
``service_now_s``), so they are derived from the state in one place and
cost no property or method call.  Every entry into ``down``/``up`` is the
cluster's journal event (``cluster.node_down`` / ``cluster.node_up``),
emitted by the :class:`~repro.cluster.engine.Cluster` that owns the
fleet so the event carries cluster context (live counts, epoch).
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, FrozenSet, Optional

from repro.store import ShardedStore

__all__ = ["NodeDownError", "NodeState", "StoreNode"]


class NodeState(str, Enum):
    """Lifecycle states of one store node."""

    UP = "up"
    DEGRADED = "degraded"
    DOWN = "down"
    RECOVERING = "recovering"


#: Legal state transitions (see module docstring for the diagram).
_TRANSITIONS: Dict[NodeState, FrozenSet[NodeState]] = {
    NodeState.UP: frozenset({NodeState.DEGRADED, NodeState.DOWN}),
    NodeState.DEGRADED: frozenset({NodeState.UP, NodeState.DOWN}),
    NodeState.DOWN: frozenset({NodeState.RECOVERING}),
    NodeState.RECOVERING: frozenset({NodeState.UP, NodeState.DOWN}),
}

#: Modeled per-op service time, charged to the interconnect clock on
#: top of the fabric hops.
SERVICE_S = 5e-6

#: Extra service time per op while a node is degraded.
DEGRADED_PENALTY_S = 250e-6

#: Gauge encoding of each state (``cluster.node.state`` series).
STATE_CODES = {
    NodeState.UP: 0,
    NodeState.DEGRADED: 1,
    NodeState.DOWN: 2,
    NodeState.RECOVERING: 3,
}


class NodeDownError(RuntimeError):
    """Raised when an operation reaches a node in the ``down`` state."""


class StoreNode:
    """One cluster member: a sharded store with a failure lifecycle.

    Args:
        node_id: position on the node ring (also the successor-walk
            identity replication placement is computed from).
        store: the node's :class:`ShardedStore` (the inner routing
            level); ``ShardedStore(n_shards, scheme)`` takes an exact
            prime ``n_shards`` for a prime-capable scheme.

    Attributes:
        live: whether the node can serve any traffic at all, reads and
            writes alike (everything but down).
        service_now_s: modeled service time of one op in the current
            state (:data:`SERVICE_S`, plus :data:`DEGRADED_PENALTY_S`
            while degraded).

    Both are set on every state transition, from the state.
    """

    def __init__(self, node_id: int, store: ShardedStore):
        if node_id < 0:
            raise ValueError("node_id must be >= 0")
        self.node_id = node_id
        self.store = store
        self._enter(NodeState.UP)
        self.failures = 0
        self.recoveries = 0

    # -- state machine --------------------------------------------------

    def _enter(self, state: NodeState) -> None:
        """Set ``state`` and the attributes derived from it."""
        self.state = state
        self.live = state is not NodeState.DOWN
        self.service_now_s = (
            SERVICE_S + DEGRADED_PENALTY_S
            if state is NodeState.DEGRADED else SERVICE_S)

    def _transition(self, target: NodeState) -> None:
        if target not in _TRANSITIONS[self.state]:
            raise ValueError(
                f"node {self.node_id}: illegal transition "
                f"{self.state.value} -> {target.value}")
        self._enter(target)

    def degrade(self) -> "StoreNode":
        """Mark the node slow (serves, but pays the degraded penalty)."""
        self._transition(NodeState.DEGRADED)
        return self

    def restore(self) -> "StoreNode":
        """Clear a degraded state back to healthy."""
        self._transition(NodeState.UP)
        return self

    def fail(self) -> "StoreNode":
        """Crash the node: contents are lost, traffic is refused.

        Reachable from every serving state (up, degraded, recovering —
        a node can die again mid-recovery)."""
        self._transition(NodeState.DOWN)
        self.failures += 1
        self._wipe()
        return self

    def begin_recovery(self) -> "StoreNode":
        """Enter ``recovering``: writable (re-replication + fresh
        writes), readable best-effort."""
        self._transition(NodeState.RECOVERING)
        return self

    def complete_recovery(self) -> "StoreNode":
        """Recovery done: back to full membership."""
        self._transition(NodeState.UP)
        self.recoveries += 1
        return self

    def _wipe(self) -> None:
        """Crash-loss: the store's shard fleet restarts empty, keeping
        the same routing table (same scheme, same shard count)."""
        self.store.wipe()

    # -- serving --------------------------------------------------------

    def _check_live(self) -> None:
        if self.state is NodeState.DOWN:
            raise NodeDownError(f"node {self.node_id} is down")

    def get(self, key, default=None):
        self._check_live()
        return self.store.get(key, default)

    def put(self, key, value):
        self._check_live()
        return self.store.put(key, value)

    def delete(self, key) -> bool:
        self._check_live()
        return self.store.delete(key)

    def contains(self, key) -> bool:
        self._check_live()
        return self.store.contains(key)

    @property
    def occupancy(self) -> int:
        return len(self.store)

    def describe(self) -> Dict[str, object]:
        """JSON-friendly summary for telemetry and journal payloads."""
        return {
            "node_id": self.node_id,
            "state": self.state.value,
            "scheme": self.store.scheme,
            "n_shards": self.store.n_shards,
            "occupancy": self.occupancy,
            "failures": self.failures,
            "recoveries": self.recoveries,
        }

    def __repr__(self) -> str:
        return (f"StoreNode(id={self.node_id}, state={self.state.value}, "
                f"{self.store.scheme}/{self.store.n_shards} shards, "
                f"occupancy={self.occupancy})")
