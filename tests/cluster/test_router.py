"""Two-level routing: composition algebra, parity, invariance (§3 P2).

The composed map key → (node, shard) must behave like one indexing
function: scalar and vectorized paths agree bit-for-bit, quarantine
re-routing agrees across both paths, and the paper's sequence
invariance (Property 2) survives composition — pMod over pMod is, by
CRT, one modulo by the prime product; pow2 over pow2 one modulo by the
larger power of two; an XOR outer level breaks the property exactly as
it does at one level.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterRouter
from repro.hashing import (
    is_sequence_invariant,
    sequence_invariance_violations,
    strided_addresses,
)
from repro.store import RoutingTable

#: Exact node-ring sizes the properties must survive (ISSUE: 3/5/7).
NODE_COUNTS = (3, 5, 7)

#: Inner fleets: one power-of-two, one exact-prime.
SHARD_FLEETS = (("traditional", 16), ("pmod", 13))

STRIDES = (1, 2, 7, 13, 16, 64, 65)


def make_router(node_scheme="pmod", n_nodes=5, shard_scheme="pmod",
                shards_per_node=13):
    node_table = RoutingTable.create(node_scheme, n_nodes)
    shard_tables = [RoutingTable.create(shard_scheme, shards_per_node)
                    for _ in range(node_table.n_shards)]
    return ClusterRouter(node_table, shard_tables)


class TestScalarVectorParity:
    @pytest.mark.parametrize("n_nodes", NODE_COUNTS)
    @pytest.mark.parametrize("shard_scheme,shards_per_node", SHARD_FLEETS)
    def test_route_matches_route_array(self, n_nodes, shard_scheme,
                                       shards_per_node):
        router = make_router(n_nodes=n_nodes, shard_scheme=shard_scheme,
                             shards_per_node=shards_per_node)
        keys = np.arange(0, 4096, 3, dtype=np.uint64)
        nodes, shards = router.route_array(keys)
        for i in (0, 1, 17, 100, len(keys) - 1):
            node, shard = router.route(int(keys[i]))
            assert (node, shard) == (int(nodes[i]), int(shards[i]))

    def test_composed_index_matches_index_array(self):
        router = make_router()
        composed = router.composed
        keys = strided_addresses(7, 512)
        flat = composed.index_array(keys)
        assert flat.min() >= 0 and flat.max() < composed.n_sets
        for i in (0, 5, 311):
            assert composed.index(int(keys[i])) == int(flat[i])

    @pytest.mark.parametrize("n_nodes", NODE_COUNTS)
    def test_quarantine_probe_parity(self, n_nodes):
        """Node-level quarantine re-routes identically on the scalar
        and vectorized paths, and never lands on a quarantined node."""
        router = make_router(n_nodes=n_nodes).with_node_quarantined([0])
        keys = np.arange(2048, dtype=np.uint64)
        nodes, _ = router.route_array(keys)
        assert 0 not in set(nodes.tolist())
        for k in range(0, 2048, 97):
            assert router.node(k) == int(nodes[k])
            assert router.node(k) != 0


class TestSequenceInvariance:
    @pytest.mark.parametrize("n_nodes", NODE_COUNTS)
    @pytest.mark.parametrize("stride", STRIDES)
    def test_pmod_over_pmod_is_invariant(self, n_nodes, stride):
        """Distinct primes at both levels compose (CRT) into one
        modulo — Property 2 holds for the composed mapping."""
        router = make_router(node_scheme="pmod", n_nodes=n_nodes,
                             shard_scheme="pmod", shards_per_node=13)
        assert is_sequence_invariant(router.composed,
                                     strided_addresses(stride, 2048))

    @pytest.mark.parametrize("stride", STRIDES)
    def test_pow2_over_pow2_is_invariant(self, stride):
        router = make_router(node_scheme="traditional", n_nodes=4,
                             shard_scheme="traditional",
                             shards_per_node=16)
        assert is_sequence_invariant(router.composed,
                                     strided_addresses(stride, 2048))

    @pytest.mark.parametrize("shard_scheme,shards_per_node", SHARD_FLEETS)
    def test_mixed_stacks_are_invariant_when_both_levels_are_modulo(
            self, shard_scheme, shards_per_node):
        router = make_router(node_scheme="pmod", n_nodes=5,
                             shard_scheme=shard_scheme,
                             shards_per_node=shards_per_node)
        for stride in STRIDES:
            assert is_sequence_invariant(router.composed,
                                         strided_addresses(stride, 1024))

    def test_xor_outer_level_violates_invariance(self):
        router = make_router(node_scheme="xor", n_nodes=8,
                             shard_scheme="pmod", shards_per_node=13)
        violations = sum(
            sequence_invariance_violations(router.composed,
                                           strided_addresses(s, 2048))
            for s in STRIDES)
        assert violations > 0


class TestReplicas:
    def test_primary_first_then_ring_successors(self):
        router = make_router(n_nodes=5)
        for key in range(100):
            placement = router.replicas(key, 3)
            assert placement[0] == router.node(key)
            assert len(placement) == len(set(placement)) == 3
            for a, b in zip(placement, placement[1:]):
                assert b == (a + 1) % router.n_nodes

    def test_placement_is_pure_function_of_key_and_table(self):
        router = make_router(n_nodes=7)
        first = [tuple(router.replicas(k, 2)) for k in range(500)]
        second = [tuple(router.replicas(k, 2)) for k in range(500)]
        assert first == second

    def test_quarantined_nodes_are_skipped(self):
        router = make_router(n_nodes=5).with_node_quarantined([1, 2])
        for key in range(200):
            placement = router.replicas(key, 2)
            assert 1 not in placement and 2 not in placement
            assert len(placement) == 2

    def test_r_capped_at_usable_ring(self):
        router = make_router(n_nodes=3).with_node_quarantined([0])
        assert len(router.replicas(42, 5)) == 2

    def test_r_must_be_positive(self):
        with pytest.raises(ValueError, match="replica count"):
            make_router().replicas(1, 0)


def successor_walk(table, key, r):
    """The placement rule spelled out: the primary node, then clockwise
    successors, skipping quarantined nodes, never more than the ring."""
    placement, node = [], table.shard(key)
    for _ in range(table.n_shards):
        if node not in table.quarantined:
            placement.append(node)
            if len(placement) == r:
                break
        node = (node + 1) % table.n_shards
    return placement


KEYS = st.one_of(st.integers(min_value=-(1 << 70), max_value=1 << 70),
                 st.text(max_size=8), st.binary(max_size=8))

#: (node scheme, physical node count) rings the placement tests use.
RINGS = [("traditional", 2), ("pmod", 3), ("pmod", 4), ("pmod", 5),
         ("pmod", 7), ("traditional", 8), ("pmod", 11), ("pmod", 16),
         ("keyed", 13), ("pmod", 31), ("xor", 32)]


#: pMod node-table sizes: exact primes (the ladder's rungs) and powers
#: of two (pMod over the largest prime below).
PMOD_NODE_COUNTS = st.one_of(
    st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 61, 67]),
    st.sampled_from([4, 8, 16, 32, 64]))


class TestReplicasAgainstWalk:
    @pytest.mark.parametrize("node_scheme,n_nodes", RINGS)
    def test_closed_form_matches_the_walk(self, node_scheme, n_nodes):
        """Nothing quarantined: every ``r`` from 1 to the ring plus two
        (the closed form up to the ring, the walk past it) gives the
        successor walk's placement."""
        router = make_router(node_scheme=node_scheme, n_nodes=n_nodes,
                             shards_per_node=5)
        keys = list(range(-50, 300)) + [1 << 64, "k", b"k"]
        for r in range(1, router.n_nodes + 3):
            for key in keys:
                assert router.replicas(key, r) == successor_walk(
                    router.node_table, key, r)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_quarantined_placement_matches_the_walk(self, data):
        """Over rings (the fixed ones, and drawn prime and power-of-two
        pMod tables), quarantine sets up to all but one node and every
        ``r`` from 1 to the ring plus two; int (negative, wider than 64
        bits), str and bytes keys."""
        node_scheme, n_nodes = data.draw(st.one_of(
            st.sampled_from(RINGS),
            PMOD_NODE_COUNTS.map(lambda n: ("pmod", n))), label="ring")
        router = make_router(node_scheme=node_scheme, n_nodes=n_nodes,
                             shards_per_node=5)
        usable = router.n_nodes
        quarantine = data.draw(st.sets(
            st.integers(min_value=0, max_value=usable - 1),
            max_size=usable - 1), label="quarantine")
        router = router.with_node_quarantined(quarantine)
        r = data.draw(st.integers(min_value=1, max_value=usable + 2),
                      label="r")
        for key in data.draw(st.lists(KEYS, min_size=1, max_size=20),
                             label="keys"):
            assert router.replicas(key, r) == successor_walk(
                router.node_table, key, r)


class TestDerivation:
    def test_quarantine_derives_a_new_placement_table(self):
        """The placement table belongs to one router: quarantining and
        healing build new ones, and the original keeps its placement."""
        router = make_router(n_nodes=7)
        before = [router.replicas(k, 3) for k in range(50)]
        quarantined = router.with_node_quarantined([3])
        assert all(3 not in quarantined.replicas(k, 3) for k in range(50))
        assert [router.replicas(k, 3) for k in range(50)] == before
        healed = quarantined.without_node_quarantined()
        assert [healed.replicas(k, 3) for k in range(50)] == before

    def test_quarantine_bumps_epoch(self):
        router = make_router()
        assert router.epoch == 0
        quarantined = router.with_node_quarantined([2])
        assert quarantined.epoch == 1
        assert quarantined.quarantined_nodes == frozenset([2])
        healed = quarantined.without_node_quarantined()
        assert healed.epoch == 2
        assert healed.quarantined_nodes == frozenset()

    def test_noop_quarantine_returns_self(self):
        router = make_router()
        assert router.with_node_quarantined([]) is router

    def test_table_count_mismatch_rejected(self):
        node_table = RoutingTable.create("pmod", 5)
        with pytest.raises(ValueError, match="one shard table per node"):
            ClusterRouter(node_table,
                          [RoutingTable.create("pmod", 13)] * 3)

    def test_describe(self):
        router = make_router(n_nodes=5, shards_per_node=13)
        description = router.describe()
        assert description["n_nodes"] == 5
        assert description["shards_per_node"] == [13] * 5
