"""The virtual-time interconnect: links, queues, topologies, congestion."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    Fabric,
    Link,
    fat_tree_fabric,
    make_fabric,
    star_fabric,
)
from repro.cluster.interconnect import FRONTEND, node_endpoint


class TestLink:
    def test_serialization_plus_latency(self):
        link = Link("a->b", bandwidth_bps=1000, latency_s=0.5)
        # 100 bytes at 1000 B/s = 0.1s on the wire, then 0.5s of flight.
        assert link.send(0.0, 100) == pytest.approx(0.6)

    def test_contention_serializes(self):
        link = Link("a->b", bandwidth_bps=1000, latency_s=0.0)
        first = link.send(0.0, 100)
        second = link.send(0.0, 100)
        # The second message waits for the wire: strictly later arrival.
        assert second == pytest.approx(first + 0.1)
        assert link.queued_s == pytest.approx(0.1)

    def test_bounded_queue_tail_drops(self):
        link = Link("a->b", bandwidth_bps=10, latency_s=0.0, queue_depth=2)
        assert link.send(0.0, 100) is not None  # serializing
        assert link.send(0.0, 100) is not None  # queued (depth 1)
        assert link.send(0.0, 100) is None      # queue full: dropped
        assert link.drops == 1
        assert link.transfers == 2

    def test_queue_drains_with_virtual_time(self):
        link = Link("a->b", bandwidth_bps=10, latency_s=0.0, queue_depth=1)
        link.send(0.0, 100)   # busy until 10.0
        assert link.send(0.0, 100) is None
        # Long after the wire freed up, sends flow again.
        assert link.send(50.0, 100) is not None

    def test_determinism(self):
        def run():
            link = Link("a->b", bandwidth_bps=997, latency_s=1e-6,
                        queue_depth=4)
            return [link.send(i * 1e-4, 256) for i in range(100)]
        assert run() == run()

    def test_now_may_go_backwards(self):
        """A response leg can reach a link earlier in virtual time than
        the previous message: it still queues behind the busy wire, and
        departures already gone stay gone."""
        link = Link("a->b", bandwidth_bps=100, latency_s=0.0, queue_depth=2)
        assert link.send(5.0, 100) == 6.0
        assert link.send(1.0, 100) == 7.0  # waits 5 s for the wire
        assert link.queued_s == 5.0
        assert link.send(0.5, 100) is None  # two still waiting: dropped
        assert link.send(6.5, 100) == 8.0   # the first left at 6.0
        assert (link.transfers, link.drops, link.peak_queue) == (3, 1, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            Link("x", bandwidth_bps=0)
        with pytest.raises(ValueError):
            Link("x", latency_s=-1)
        with pytest.raises(ValueError):
            Link("x", queue_depth=0)


class ListLink:
    """The reference queue: the departure list refiltered on every send,
    so it assumes nothing about the order of ``now_s`` or departures."""

    def __init__(self, bandwidth_bps, latency_s, queue_depth):
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.queue_depth = queue_depth
        self.busy_until_s = 0.0
        self.departures = []
        self.transfers = self.drops = self.bytes_moved = 0
        self.busy_s = self.queued_s = 0.0
        self.peak_queue = 0

    def send(self, now_s, n_bytes):
        self.departures = [t for t in self.departures if t > now_s]
        queued = len(self.departures)
        if queued > self.peak_queue:
            self.peak_queue = queued
        if queued >= self.queue_depth:
            self.drops += 1
            return None
        serialize_s = n_bytes / self.bandwidth_bps
        start_s = max(now_s, self.busy_until_s)
        self.busy_until_s = start_s + serialize_s
        self.departures.append(self.busy_until_s)
        self.transfers += 1
        self.bytes_moved += n_bytes
        self.busy_s += serialize_s
        self.queued_s += start_s - now_s
        return self.busy_until_s + self.latency_s


COUNTERS = ("transfers", "drops", "bytes_moved", "busy_s", "queued_s",
            "peak_queue", "busy_until_s")


#: How the next send's ``now_s`` is chosen: a step of the random walk
#: (back as well as forward), or exactly the departure time of one of
#: the messages the model still queues (index from the newest), so the
#: "left the wire at exactly now_s" boundary is hit too.
CLOCK_MOVES = st.one_of(
    st.floats(min_value=-1e-3, max_value=2e-3, allow_nan=False),
    st.integers(min_value=1, max_value=4))


class TestLinkAgainstListModel:
    @settings(max_examples=300, deadline=None)
    @given(bandwidth=st.sampled_from([10.0, 997.0, 4e6, 1e8]),
           latency=st.sampled_from([0.0, 1e-6, 20e-6, 0.5]),
           depth=st.integers(min_value=1, max_value=4),
           sends=st.lists(st.tuples(CLOCK_MOVES,
                                    st.integers(min_value=0,
                                                max_value=4096)),
                          max_size=60))
    def test_same_answers_and_counters(self, bandwidth, latency, depth,
                                       sends):
        """Every return value and counter equals the list model's
        exactly, for clocks that step back as well as forward."""
        link = Link("a->b", bandwidth_bps=bandwidth, latency_s=latency,
                    queue_depth=depth)
        model = ListLink(bandwidth, latency, depth)
        now_s = 0.0
        for move, n_bytes in sends:
            if isinstance(move, float):
                now_s += move
            elif len(model.departures) >= move:
                now_s = model.departures[-move]
            assert link.send(now_s, n_bytes) == model.send(now_s, n_bytes)
            for name in COUNTERS:
                assert getattr(link, name) == getattr(model, name), name


class ListFabric:
    """The reference fabric: one :class:`ListLink` per link of a real
    fabric, strung along the same paths, with the hop loops spelled
    out."""

    def __init__(self, fabric):
        self.links = {name: ListLink(link.bandwidth_bps, link.latency_s,
                                     link.queue_depth)
                      for name, link in fabric.links.items()}
        self.paths = {pair: [self.links[link.name] for link in hops]
                      for pair, hops in fabric.paths.items()}
        self.topology = fabric.topology
        self.transfers = self.drops = 0

    def leg(self, src, dst, n_bytes, at_s):
        for link in self.paths[src, dst]:
            at_s = link.send(at_s, n_bytes)
            if at_s is None:
                self.drops += 1
                return None
        self.transfers += 1
        return at_s

    def transfer(self, src, dst, n_bytes, now_s):
        return now_s if src == dst else self.leg(src, dst, n_bytes, now_s)

    def round_trip(self, src, dst, request_bytes, response_bytes, now_s,
                   service_s):
        if src == dst:
            return now_s + service_s
        at_s = self.leg(src, dst, request_bytes, now_s)
        if at_s is None:
            return None
        return self.leg(dst, src, response_bytes, at_s + service_s)

    def stats(self, elapsed_s):
        rows = []
        for name, link in self.links.items():
            row = {"name": name, "transfers": link.transfers,
                   "drops": link.drops, "bytes_moved": link.bytes_moved,
                   "busy_s": link.busy_s, "queued_s": link.queued_s,
                   "peak_queue": link.peak_queue}
            if elapsed_s and elapsed_s > 0:
                row["utilization"] = min(1.0, link.busy_s / elapsed_s)
            rows.append(row)
        return {"topology": self.topology, "transfers": self.transfers,
                "drops": self.drops, "links": rows}


#: One fabric call: a one-way transfer, or a round trip with a far-end
#: service time, between two drawn endpoints (``None`` = the frontend).
FABRIC_CALLS = st.tuples(
    CLOCK_MOVES,
    st.sampled_from(["transfer", "round_trip"]),
    st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    st.integers(min_value=0, max_value=4096),
    st.integers(min_value=0, max_value=4096),
    st.sampled_from([0.0, 5e-6, 1e-3]))


class TestFabricAgainstListModel:
    @settings(max_examples=300, deadline=None)
    @given(topology=st.sampled_from(["star", "fat-tree"]),
           n_nodes=st.integers(min_value=1, max_value=6),
           leaf_width=st.integers(min_value=1, max_value=4),
           bandwidth=st.sampled_from([10.0, 997.0, 4e6, 1e8]),
           latency=st.sampled_from([0.0, 1e-6, 20e-6, 0.5]),
           depth=st.integers(min_value=1, max_value=4),
           calls=st.lists(FABRIC_CALLS, max_size=60))
    def test_same_arrivals_and_stats(self, topology, n_nodes, leaf_width,
                                     bandwidth, latency, depth, calls):
        """Multi-hop transfers and round trips over star and fat-tree
        fabrics give the per-link list model's arrival times (or drop)
        and its ``stats()`` exactly, for clocks that step back as well
        as forward."""
        kw = dict(bandwidth_bps=bandwidth, latency_s=latency,
                  queue_depth=depth)
        fabric = (star_fabric(n_nodes, **kw) if topology == "star"
                  else fat_tree_fabric(n_nodes, leaf_width=leaf_width,
                                       **kw))
        model = ListFabric(fabric)
        now_s = 0.0
        for move, call, a, b, out_bytes, back_bytes, service_s in calls:
            if isinstance(move, float):
                now_s += move
            else:  # a departure the model still queues somewhere
                queued = [t for link in model.links.values()
                          for t in link.departures]
                if len(queued) >= move:
                    now_s = sorted(queued)[-move]
            src = FRONTEND if a is None else node_endpoint(a % n_nodes)
            dst = FRONTEND if b is None else node_endpoint(b % n_nodes)
            if call == "transfer":
                assert fabric.transfer(src, dst, out_bytes, now_s) == \
                    model.transfer(src, dst, out_bytes, now_s)
            else:
                assert fabric.round_trip(
                    src, dst, out_bytes, back_bytes, now_s, service_s) == \
                    model.round_trip(src, dst, out_bytes, back_bytes,
                                     now_s, service_s)
        assert fabric.stats(now_s) == model.stats(now_s)


class TestStarFabric:
    def test_every_pair_routes_through_the_switch(self):
        fabric = star_fabric(4)
        assert fabric.hops(FRONTEND, node_endpoint(2)) == 2
        assert fabric.hops(node_endpoint(0), node_endpoint(3)) == 2

    def test_transfer_accumulates_both_hops(self):
        fabric = star_fabric(2, bandwidth_bps=1000, latency_s=0.25)
        # 100B: 0.1 + 0.25 per hop, two hops.
        assert fabric.transfer(FRONTEND, node_endpoint(0), 100,
                               0.0) == pytest.approx(0.7)

    def test_round_trip_includes_service_time(self):
        fabric = star_fabric(2, bandwidth_bps=1000, latency_s=0.0)
        done = fabric.round_trip(FRONTEND, node_endpoint(0),
                                 request_bytes=100, response_bytes=100,
                                 now_s=0.0, service_s=1.0)
        assert done == pytest.approx(0.1 + 0.1 + 1.0 + 0.1 + 0.1)

    def test_self_transfer_is_free(self):
        fabric = star_fabric(2)
        assert fabric.transfer("node0", "node0", 10_000, 5.0) == 5.0

    def test_unknown_endpoint_raises(self):
        with pytest.raises(KeyError, match="no path"):
            star_fabric(2).transfer("node0", "node99", 1, 0.0)


class TestFatTreeFabric:
    def test_same_leaf_shortcut(self):
        fabric = fat_tree_fabric(8, leaf_width=4)
        assert fabric.hops(node_endpoint(0), node_endpoint(3)) == 2
        assert fabric.hops(node_endpoint(0), node_endpoint(4)) == 4

    def test_frontend_descends_through_leaf(self):
        fabric = fat_tree_fabric(8, leaf_width=4)
        assert fabric.hops(FRONTEND, node_endpoint(5)) == 3

    def test_cross_leaf_costs_more_than_same_leaf(self):
        fabric = fat_tree_fabric(8, leaf_width=4, bandwidth_bps=1000,
                                 latency_s=0.1)
        near = fabric.transfer(node_endpoint(0), node_endpoint(1), 100, 0.0)
        far = fabric.transfer(node_endpoint(0), node_endpoint(7), 100, 0.0)
        assert far > near


class TestCongestion:
    def test_congestion_widens_tail_latency(self):
        """Offered load past the shared uplink's capacity queues, and
        queueing shows up as a widening arrival-minus-send gap — the
        mechanical tail-latency story, no randomness anywhere."""
        fabric = star_fabric(2, bandwidth_bps=10_000, latency_s=0.0,
                             queue_depth=1024)
        latencies = []
        for i in range(200):
            now = i * 1e-3  # 1000 msgs/s of 100B = 100 KB/s >> 10 KB/s
            arrival = fabric.transfer(FRONTEND, node_endpoint(0), 100, now)
            latencies.append(arrival - now)
        assert latencies[-1] > latencies[0] * 10

    def test_stats_report_utilization_and_drops(self):
        fabric = star_fabric(2, bandwidth_bps=100, latency_s=0.0,
                             queue_depth=1)
        for i in range(10):
            fabric.transfer(FRONTEND, node_endpoint(0), 100, i * 1e-3)
        stats = fabric.stats(elapsed_s=1.0)
        assert stats["drops"] > 0
        busy = {row["name"]: row for row in stats["links"]}
        assert 0.0 < busy["frontend->sw0"]["utilization"] <= 1.0


class TestMakeFabric:
    def test_by_name(self):
        assert make_fabric("star", 3).topology == "star"
        assert make_fabric("fat-tree", 3).topology == "fat-tree"

    def test_unknown_topology(self):
        with pytest.raises(KeyError, match="unknown topology"):
            make_fabric("torus", 3)
