"""Cluster semantics: replication, quorums, read-repair, recovery."""

import asyncio

import pytest

from repro.cluster import (
    Cluster,
    NodeFaultInjector,
    NodeState,
    ReplicationConfig,
    ReReplicator,
)
from repro.obs import Journal, set_journal
from repro.store.routing import canonical_key


def make_cluster(n_nodes=5, replicas=2, **kwargs):
    kwargs.setdefault("node_scheme", "pmod")
    kwargs.setdefault("shard_scheme", "pmod")
    kwargs.setdefault("shards_per_node", 8)
    return Cluster(n_nodes=n_nodes,
                   replication=ReplicationConfig(replicas=replicas),
                   **kwargs)


@pytest.fixture
def journal():
    journal = Journal()
    previous = set_journal(journal)
    yield journal
    set_journal(previous)


class TestReplication:
    def test_put_lands_on_r_replicas(self):
        cluster = make_cluster(replicas=2)
        for i in range(100):
            assert cluster.put(i, i) == 2
        assert len(cluster) == 200  # two copies of every key

    def test_replica_set_holds_the_key(self):
        cluster = make_cluster(replicas=3)
        cluster.put("k", "v")
        placement = cluster.router.replicas("k", 3)
        for node_id in placement:
            assert cluster.nodes[node_id].contains(canonical_key("k"))

    def test_get_returns_freshest_version(self):
        cluster = make_cluster(replicas=2)
        cluster.put("k", "old")
        cluster.put("k", "new")
        assert cluster.get("k") == "new"

    def test_delete_kills_every_copy(self):
        cluster = make_cluster(replicas=2)
        cluster.put("k", "v")
        assert cluster.delete("k") is True
        assert cluster.get("k", "gone") == "gone"
        assert len(cluster) == 0

    def test_replicas_capped_by_ring(self):
        with pytest.raises(ValueError, match="replicas"):
            make_cluster(n_nodes=3, replicas=4)


class TestNodeLossAndQuorum:
    def test_reads_survive_single_node_loss(self, journal):
        cluster = make_cluster(n_nodes=7, replicas=2)
        for i in range(300):
            cluster.put(i, i * 7)
        cluster.fail_node(3)
        assert all(cluster.get(i) == i * 7 for i in range(300))
        (event,) = journal.find("cluster.node_down")
        assert event.fields["node"] == 3
        assert event.fields["live_nodes"] == 6

    def test_write_quorum_miss_is_journaled(self, journal):
        cluster = make_cluster(n_nodes=3, replicas=2)
        cluster.replication = ReplicationConfig(replicas=2, write_quorum=2)
        cluster.fail_node(0)
        cluster.fail_node(1)
        # Keys whose whole replica set is {0,1} can't reach quorum.
        misses_before = cluster.counts["quorum_misses"]
        for i in range(100):
            cluster.put(i, i)
        assert cluster.counts["quorum_misses"] > misses_before
        events = journal.find("cluster.quorum_miss")
        assert events and all(e.fields["needed"] == 2 for e in events)

    def test_failed_read_returns_default(self):
        cluster = make_cluster(n_nodes=3, replicas=1)
        cluster.put("k", "v")
        owner = cluster.router.replicas("k", 1)[0]
        cluster.fail_node(owner)
        assert cluster.get("k", "fallback") == "fallback"
        assert cluster.counts["failed_reads"] > 0

    def test_node_state_transitions_guard_double_fail(self):
        cluster = make_cluster()
        cluster.fail_node(1)
        with pytest.raises(ValueError, match="illegal transition"):
            cluster.fail_node(1)


class TestRecovery:
    def test_zero_key_loss_after_recovery(self, journal):
        """The acceptance drill: kill a node (crash-loss), keep
        serving, recover, and every key is back — including on the
        recovered node itself."""
        cluster = make_cluster(n_nodes=7, replicas=2)
        for i in range(400):
            cluster.put(i, i)
        victim = 2
        lost = cluster.nodes[victim].occupancy
        assert lost > 0
        cluster.fail_node(victim)
        report = cluster.recover_node(victim)
        assert report.copied == lost  # every owed key came back
        assert cluster.nodes[victim].occupancy == lost
        assert all(cluster.get(i) == i for i in range(400))
        (up,) = journal.find("cluster.node_up")
        assert up.fields["copied"] == lost

    def test_journal_chain_orders_down_rereplicate_up(self, journal):
        cluster = make_cluster(n_nodes=5, replicas=2)
        for i in range(200):
            cluster.put(i, i)
        cluster.fail_node(1)
        cluster.recover_node(1, budget=32)
        (down,) = journal.find("cluster.node_down")
        chunks = journal.find("cluster.rereplicate")
        (up,) = journal.find("cluster.node_up")
        assert chunks
        assert down.seq < chunks[0].seq < up.seq
        assert all(c.fields["budget"] == 32 for c in chunks)
        # Bounded drain: more than one chunk at budget 32.
        assert len(chunks) >= 2

    def test_rereplication_respects_budget(self):
        cluster = make_cluster(n_nodes=5, replicas=2)
        for i in range(300):
            cluster.put(i, i)
        cluster.fail_node(0)
        cluster.nodes[0].begin_recovery()
        drain = ReReplicator(cluster, 0, budget=16)
        owed = drain.remaining
        moved = drain.step()
        assert moved == 16
        assert drain.remaining == owed - 16
        drain.run()
        assert drain.remaining == 0
        cluster.nodes[0].complete_recovery()

    def test_fresh_writes_during_recovery_not_clobbered(self):
        """A key updated after the crash must keep its new value even
        when a stale copy is re-replicated from a peer."""
        cluster = make_cluster(n_nodes=5, replicas=2)
        cluster.put("k", "v1")
        victim = cluster.router.replicas("k", 2)[0]
        cluster.fail_node(victim)
        cluster.put("k", "v2")  # lands on surviving replica(s)
        cluster.recover_node(victim)
        assert cluster.get("k") == "v2"

    def test_deletes_do_not_resurrect(self):
        cluster = make_cluster(n_nodes=5, replicas=2)
        cluster.put("k", "v")
        cluster.delete("k")
        cluster.fail_node(1)
        cluster.recover_node(1)
        assert cluster.get("k", "gone") == "gone"

    def test_read_repair_converges_a_stale_replica(self):
        cluster = make_cluster(n_nodes=5, replicas=2)
        cluster.put("k", "v1")
        victim = cluster.router.replicas("k", 2)[1]
        cluster.fail_node(victim)
        cluster.put("k", "v2")
        cluster.nodes[victim].begin_recovery()
        cluster.nodes[victim].complete_recovery()
        # victim rejoined empty (no drain): the next read repairs it.
        assert cluster.get("k") == "v2"
        assert cluster.counts["read_repairs"] >= 1
        assert cluster.nodes[victim].get(canonical_key("k"))[1] == "v2"


class TestFaultSchedule:
    def test_scheduled_kill_and_recovery_fire_at_op_index(self, journal):
        injector = (NodeFaultInjector()
                    .schedule_fail(50, 1)
                    .schedule_recover(80, 1))
        cluster = make_cluster(n_nodes=5, replicas=2, injector=injector)
        for i in range(100):
            cluster.put(i, i)
        assert cluster.nodes[1].state is NodeState.UP
        assert cluster.nodes[1].failures == 1
        assert cluster.nodes[1].recoveries == 1
        assert injector.stats()["fail"] == 1
        assert journal.find("cluster.node_down")
        assert journal.find("cluster.node_up")
        assert all(cluster.get(i) == i for i in range(100))

    def test_transient_replica_errors_are_counted(self):
        injector = NodeFaultInjector(error_probability=0.5, seed=7)
        cluster = make_cluster(n_nodes=5, replicas=2, injector=injector)
        for i in range(100):
            cluster.put(i, i)
        assert cluster.counts["replica_errors"] > 0
        assert injector.stats()["error"] == cluster.counts["replica_errors"]


class TestQuarantineAndTelemetry:
    def test_quarantine_rebalances_placement(self):
        cluster = make_cluster(n_nodes=5, replicas=2)
        cluster.quarantine_node([2])
        assert cluster.epoch == 1
        for i in range(100):
            assert 2 not in cluster.router.replicas(i, 2)
        cluster.heal_node()
        assert cluster.epoch == 2

    def test_telemetry_snapshot(self):
        cluster = make_cluster(n_nodes=5, replicas=2)
        for i in range(200):
            cluster.put(i, i)
        for i in range(200):
            cluster.get(i)
        telemetry = cluster.telemetry()
        assert telemetry.ops == 400
        assert telemetry.puts == telemetry.gets == 200
        assert telemetry.live_nodes == 5
        assert telemetry.node_balance == pytest.approx(1.0, abs=0.5)
        assert telemetry.sim_p99_s > 0
        assert sum(telemetry.node_accesses) > 0
        payload = telemetry.as_dict()
        assert payload["node_scheme"] == "pmod"

    def test_virtual_clock_advances_per_op(self):
        cluster = make_cluster(tick_s=1e-3)
        before = cluster.virtual_now_s
        cluster.put(1, 1)
        assert cluster.virtual_now_s == pytest.approx(before + 1e-3)


class TestFrontendCompat:
    def test_frontend_batches_per_node(self):
        """A serving Frontend over a Cluster sees nodes, not shards:
        the outer routing width is the node count and every request
        lands on its node's queue."""
        from repro.serve import BatchConfig, Frontend

        cluster = make_cluster(n_nodes=5, replicas=2)
        assert cluster.n_shards == cluster.n_nodes == 5

        async def scenario():
            async with Frontend(cluster,
                                batch=BatchConfig(max_batch_size=8,
                                                  max_wait_s=0.001)) as fe:
                puts = [await fe.put(i, i * 3) for i in range(40)]
                gets = [await fe.get(i) for i in range(40)]
            return puts, gets

        puts, gets = asyncio.run(scenario())
        assert all(r.ok for r in puts)
        assert [g.value for g in gets] == [i * 3 for i in range(40)]

    def test_frontend_serves_through_node_loss(self):
        from repro.serve import BatchConfig, Frontend

        cluster = make_cluster(n_nodes=7, replicas=2)

        async def scenario():
            async with Frontend(cluster,
                                batch=BatchConfig(max_batch_size=8,
                                                  max_wait_s=0.001)) as fe:
                for i in range(100):
                    await fe.put(i, i)
                cluster.fail_node(2)
                gets = [await fe.get(i) for i in range(100)]
            return gets

        gets = asyncio.run(scenario())
        assert [g.value for g in gets] == list(range(100))
