"""A virtual-time interconnect model: links, switch queues, topologies.

The cluster tier needs cross-node hops to *cost* something, or the
two-level routing comparison degenerates into the single-store case
with more bookkeeping.  This module prices every hop with a
deterministic queuing model in the spirit of CXL-fabric simulators:

* a :class:`Link` is a directed pipe with a **bandwidth** (serialization
  time = bytes / bandwidth), a **propagation latency**, and a **bounded
  switch queue** in front of it — at most ``queue_depth`` messages may
  wait for the wire; an arrival past that is *dropped* (the replica op
  it carried fails, exactly like a full switch buffer tail-drops);
* a :class:`Fabric` owns the links plus a precomputed path table
  (endpoint → endpoint → list of links) and transfers messages through
  them in **virtual time**: each link remembers when it will next be
  free (``busy_until_s``), so two messages racing for the same wire
  serialize and the loser eats queuing delay.  Congested links therefore
  widen tail latency mechanically, with no randomness anywhere.

Two topology builders cover the shapes the experiments compare:

* :func:`star_fabric` — every node hangs off one central switch
  (frontend → switch → node); the switch uplink is the shared
  bottleneck;
* :func:`fat_tree_fabric` — a 2-level fat tree: leaf switches of
  ``leaf_width`` nodes under one spine; same-leaf traffic never touches
  the spine, cross-leaf traffic pays both tiers.

The model is intentionally single-clock: callers hand ``transfer`` a
``now_s`` on the cluster's virtual clock and get back the absolute
arrival time at the far end, or ``None`` for a drop.  ``now_s`` is not
monotonic per link: a response leg starts when its request arrived plus
the far end's service time, which can be later than the next op's
request, and a re-replication drain's bulk copies start at the cluster
clock, behind the response legs already priced on the same links.  A
link stays exact either way (see :meth:`Link.send`).  Everything is
replayable — same request stream, same delays.

Most sends find their link idle (``busy_until_s <= now_s``): every
queued departure is at most ``busy_until_s``, so all of them have left
and the queue is cleared in one call, with no per-entry walk.  Only a
send onto a busy link pops the departed prefix and checks the depth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

__all__ = [
    "Fabric",
    "Link",
    "LinkStats",
    "fat_tree_fabric",
    "star_fabric",
]

#: Default link bandwidth (bytes/second) — 1 GB/s, a modest NIC.
DEFAULT_BANDWIDTH_BPS = 1 << 30

#: Default one-way propagation latency per link (20 microseconds).
DEFAULT_LATENCY_S = 20e-6

#: Default switch queue bound (messages waiting for one link).
DEFAULT_QUEUE_DEPTH = 64


@dataclass(frozen=True)
class LinkStats:
    """One link's lifetime accounting (JSON-friendly)."""

    name: str
    transfers: int
    drops: int
    bytes_moved: int
    busy_s: float  #: total wire-occupied (serialization) time
    queued_s: float  #: total time messages spent waiting for the wire
    peak_queue: int  #: deepest queue observed (messages)

    def as_dict(self) -> Dict[str, float]:
        return {
            "name": self.name,
            "transfers": self.transfers,
            "drops": self.drops,
            "bytes_moved": self.bytes_moved,
            "busy_s": self.busy_s,
            "queued_s": self.queued_s,
            "peak_queue": self.peak_queue,
        }


class Link:
    """One directed link with a bounded switch queue in front of it.

    Args:
        name: ``"src->dst"`` label (stats / metrics).
        bandwidth_bps: serialization rate in bytes/second.
        latency_s: one-way propagation delay.
        queue_depth: max messages waiting for the wire; an arrival that
            would queue deeper is dropped.
    """

    __slots__ = ("name", "bandwidth_bps", "latency_s", "queue_depth",
                 "busy_until_s", "_departures", "transfers", "drops",
                 "bytes_moved", "busy_s", "queued_s", "peak_queue")

    def __init__(self, name: str,
                 bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
                 latency_s: float = DEFAULT_LATENCY_S,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        if latency_s < 0:
            raise ValueError("latency_s must be >= 0")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.name = name
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.queue_depth = queue_depth
        self.busy_until_s = 0.0
        #: departure times of messages still waiting/serializing, oldest
        #: first, used to measure queue depth exactly (at most
        #: queue_depth of them).
        self._departures: Deque[float] = deque()
        self.transfers = 0
        self.drops = 0
        self.bytes_moved = 0
        self.busy_s = 0.0
        self.queued_s = 0.0
        self.peak_queue = 0

    def send(self, now_s: float, n_bytes: int) -> Optional[float]:
        """Push one message onto the link at virtual time ``now_s``.

        Returns the absolute arrival time at the far end, or ``None``
        when the switch queue is full and the message is dropped.

        Messages that have left the wire by ``now_s`` leave the queue.
        Each departure is the new ``busy_until_s``, which never
        decreases, so departures are queued in non-decreasing order and
        the ones gone by ``now_s`` are always a prefix of the queue:
        popping that prefix drops exactly the messages a filter over
        the whole queue would, for any order of ``now_s``, including a
        ``now_s`` earlier than the previous send's.  On an idle link
        (``busy_until_s <= now_s``) that prefix is the whole queue, so
        it is cleared in one call; the message queues behind nothing
        and starts at ``now_s``.
        """
        departures = self._departures
        start_s = self.busy_until_s
        if start_s <= now_s:
            departures.clear()
            start_s = now_s
        else:
            while departures and departures[0] <= now_s:
                departures.popleft()
            queued = len(departures)
            if queued > self.peak_queue:
                self.peak_queue = queued
            if queued >= self.queue_depth:
                self.drops += 1
                return None
            self.queued_s += start_s - now_s
        serialize_s = n_bytes / self.bandwidth_bps
        busy_until_s = start_s + serialize_s
        self.busy_until_s = busy_until_s
        departures.append(busy_until_s)
        self.transfers += 1
        self.bytes_moved += n_bytes
        self.busy_s += serialize_s
        return busy_until_s + self.latency_s

    def stats(self) -> LinkStats:
        return LinkStats(name=self.name, transfers=self.transfers,
                         drops=self.drops, bytes_moved=self.bytes_moved,
                         busy_s=self.busy_s, queued_s=self.queued_s,
                         peak_queue=self.peak_queue)

    def __repr__(self) -> str:
        return (f"Link({self.name!r}, {self.bandwidth_bps:.3g} B/s, "
                f"{self.latency_s * 1e6:.0f}us, q<={self.queue_depth})")


class Fabric:
    """A set of links plus the path table that strings them together.

    Args:
        links: every directed link in the topology, keyed by name.
        paths: ``(src, dst) -> [link, ...]`` hop sequences; endpoints
            not in the table cannot talk.
        topology: label recorded in stats (``"star"`` / ``"fat-tree"``).
    """

    def __init__(self, links: Dict[str, Link],
                 paths: Dict[Tuple[str, str], List[Link]],
                 topology: str = "custom"):
        self.links = dict(links)
        self.paths = dict(paths)
        self.topology = topology
        self.transfers = 0
        self.drops = 0

    def path(self, src: str, dst: str) -> List[Link]:
        try:
            return self.paths[(src, dst)]
        except KeyError:
            raise KeyError(f"no path {src!r} -> {dst!r} in "
                           f"{self.topology} fabric") from None

    def hops(self, src: str, dst: str) -> int:
        """Links on the ``src -> dst`` path (0 for self-transfers)."""
        return len(self.path(src, dst))

    def transfer(self, src: str, dst: str, n_bytes: int,
                 now_s: float) -> Optional[float]:
        """Move ``n_bytes`` from ``src`` to ``dst`` starting at
        ``now_s``; returns the arrival time, or ``None`` if any hop's
        queue tail-dropped the message.  A self-transfer is free."""
        if src == dst:
            return now_s
        at_s = now_s
        for link in self.path(src, dst):
            arrival = link.send(at_s, n_bytes)
            if arrival is None:
                self.drops += 1
                return None
            at_s = arrival
        self.transfers += 1
        return at_s

    def round_trip(self, src: str, dst: str, request_bytes: int,
                   response_bytes: int, now_s: float,
                   service_s: float = 0.0) -> Optional[float]:
        """Request out, ``service_s`` at the far end, response back.
        Returns the completion time at ``src`` or ``None`` on a drop in
        either direction; each leg counts as one :meth:`transfer`.
        Both paths are looked up before either leg is sent."""
        if src == dst:
            return now_s + service_s
        paths = self.paths
        try:
            request_path = paths[src, dst]
            response_path = paths[dst, src]
        except KeyError as exc:
            a, b = exc.args[0]
            raise KeyError(f"no path {a!r} -> {b!r} in "
                           f"{self.topology} fabric") from None
        at_s = now_s
        for link in request_path:
            at_s = link.send(at_s, request_bytes)
            if at_s is None:
                self.drops += 1
                return None
        self.transfers += 1
        at_s += service_s
        for link in response_path:
            at_s = link.send(at_s, response_bytes)
            if at_s is None:
                self.drops += 1
                return None
        self.transfers += 1
        return at_s

    def stats(self, elapsed_s: Optional[float] = None) -> Dict[str, object]:
        """Per-link accounting plus utilization when ``elapsed_s`` (the
        virtual timespan observed) is given."""
        per_link = []
        for link in self.links.values():
            row = link.stats().as_dict()
            if elapsed_s and elapsed_s > 0:
                row["utilization"] = min(1.0, link.busy_s / elapsed_s)
            per_link.append(row)
        return {
            "topology": self.topology,
            "transfers": self.transfers,
            "drops": self.drops,
            "links": per_link,
        }

    def __repr__(self) -> str:
        return (f"Fabric({self.topology!r}, links={len(self.links)}, "
                f"transfers={self.transfers}, drops={self.drops})")


def _duplex(links: Dict[str, Link], a: str, b: str, **kw) -> Tuple[Link, Link]:
    """Create (and register) the two directed halves of one cable."""
    fwd = Link(f"{a}->{b}", **kw)
    rev = Link(f"{b}->{a}", **kw)
    links[fwd.name] = fwd
    links[rev.name] = rev
    return fwd, rev


def node_endpoint(node_id: int) -> str:
    """Canonical endpoint name for store node ``node_id``."""
    return f"node{node_id}"

#: Endpoint name of the coordinating frontend.
FRONTEND = "frontend"


def star_fabric(n_nodes: int,
                bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
                latency_s: float = DEFAULT_LATENCY_S,
                queue_depth: int = DEFAULT_QUEUE_DEPTH) -> Fabric:
    """Every node (and the frontend) hangs off one central switch.

    Paths: ``frontend -> sw -> node_i`` (2 links each way) and
    ``node_i -> sw -> node_j`` for node-to-node re-replication traffic.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    links: Dict[str, Link] = {}
    kw = dict(bandwidth_bps=bandwidth_bps, latency_s=latency_s,
              queue_depth=queue_depth)
    sw = "sw0"
    up: Dict[str, Link] = {}
    down: Dict[str, Link] = {}
    for endpoint in [FRONTEND] + [node_endpoint(i) for i in range(n_nodes)]:
        to_sw, from_sw = _duplex(links, endpoint, sw, **kw)
        up[endpoint] = to_sw
        down[endpoint] = from_sw
    paths: Dict[Tuple[str, str], List[Link]] = {}
    endpoints = list(up)
    for src in endpoints:
        for dst in endpoints:
            if src != dst:
                paths[(src, dst)] = [up[src], down[dst]]
    return Fabric(links, paths, topology="star")


def fat_tree_fabric(n_nodes: int, leaf_width: int = 4,
                    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
                    latency_s: float = DEFAULT_LATENCY_S,
                    queue_depth: int = DEFAULT_QUEUE_DEPTH) -> Fabric:
    """2-level fat tree: nodes under leaf switches, leaves under one
    spine, the frontend on the spine.

    Same-leaf node pairs shortcut through their leaf (2 links); every
    other pair pays the full node → leaf → spine → leaf → node climb.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if leaf_width < 1:
        raise ValueError("leaf_width must be >= 1")
    links: Dict[str, Link] = {}
    kw = dict(bandwidth_bps=bandwidth_bps, latency_s=latency_s,
              queue_depth=queue_depth)
    spine = "spine"
    leaf_of: Dict[str, str] = {}
    up: Dict[str, Link] = {}
    down: Dict[str, Link] = {}
    leaf_up: Dict[str, Link] = {}
    leaf_down: Dict[str, Link] = {}
    n_leaves = (n_nodes + leaf_width - 1) // leaf_width
    for leaf_id in range(n_leaves):
        leaf = f"leaf{leaf_id}"
        to_spine, from_spine = _duplex(links, leaf, spine, **kw)
        leaf_up[leaf] = to_spine
        leaf_down[leaf] = from_spine
    for i in range(n_nodes):
        endpoint = node_endpoint(i)
        leaf = f"leaf{i // leaf_width}"
        leaf_of[endpoint] = leaf
        to_leaf, from_leaf = _duplex(links, endpoint, leaf, **kw)
        up[endpoint] = to_leaf
        down[endpoint] = from_leaf
    # The frontend attaches directly to the spine.
    fe_up, fe_down = _duplex(links, FRONTEND, spine, **kw)
    paths: Dict[Tuple[str, str], List[Link]] = {}
    nodes = [node_endpoint(i) for i in range(n_nodes)]
    for src in nodes:
        paths[(FRONTEND, src)] = [fe_up, leaf_down[leaf_of[src]], down[src]]
        paths[(src, FRONTEND)] = [up[src], leaf_up[leaf_of[src]], fe_down]
        for dst in nodes:
            if src == dst:
                continue
            if leaf_of[src] == leaf_of[dst]:
                paths[(src, dst)] = [up[src], down[dst]]
            else:
                paths[(src, dst)] = [up[src], leaf_up[leaf_of[src]],
                                     leaf_down[leaf_of[dst]], down[dst]]
    return Fabric(links, paths, topology="fat-tree")


#: topology name -> builder, for config-driven construction.
TOPOLOGIES = {
    "star": star_fabric,
    "fat-tree": fat_tree_fabric,
}


def make_fabric(topology: str, n_nodes: int, **kwargs) -> Fabric:
    """Build a named topology over ``n_nodes`` store nodes."""
    try:
        builder = TOPOLOGIES[topology]
    except KeyError:
        known = ", ".join(sorted(TOPOLOGIES))
        raise KeyError(
            f"unknown topology {topology!r}; known: {known}") from None
    return builder(n_nodes, **kwargs)
