"""StoreNode lifecycle: transitions, crash-loss, degraded service."""

import pytest

from repro.cluster import NodeDownError, NodeState, StoreNode
from repro.cluster.node import DEGRADED_PENALTY_S, SERVICE_S
from repro.store import ShardedStore


def make_node(node_id=0, scheme="pmod", n_shards=8):
    return StoreNode(node_id, ShardedStore(n_shards, scheme,
                                           shard_capacity=64, assoc=8))


class TestLifecycle:
    def test_full_cycle(self):
        node = make_node()
        assert node.state is NodeState.UP
        node.degrade()
        assert node.state is NodeState.DEGRADED
        node.restore()
        node.fail()
        assert node.state is NodeState.DOWN
        node.begin_recovery()
        assert node.state is NodeState.RECOVERING
        node.complete_recovery()
        assert node.state is NodeState.UP
        assert node.failures == 1
        assert node.recoveries == 1

    def test_down_to_up_is_illegal(self):
        node = make_node()
        node.fail()
        with pytest.raises(ValueError, match="illegal transition"):
            node.restore()

    def test_down_twice_is_illegal(self):
        node = make_node()
        node.fail()
        with pytest.raises(ValueError, match="illegal transition"):
            node.fail()

    def test_dying_mid_recovery_is_legal(self):
        node = make_node()
        node.fail()
        node.begin_recovery()
        node.fail()
        assert node.state is NodeState.DOWN
        assert node.failures == 2


class TestCrashLoss:
    def test_fail_wipes_contents(self):
        node = make_node()
        for i in range(32):
            node.put(i, i)
        assert node.occupancy == 32
        node.fail()
        node.begin_recovery()
        assert node.occupancy == 0
        assert node.get(5, "gone") == "gone"

    def test_routing_survives_the_crash(self):
        node = make_node(scheme="pmod", n_shards=8)
        before = (node.store.scheme, node.store.n_shards)
        node.fail()
        assert (node.store.scheme, node.store.n_shards) == before


class TestServing:
    def test_down_node_refuses_ops(self):
        node = make_node()
        node.put("k", 1)
        node.fail()
        for op in (lambda: node.get("k"), lambda: node.put("k", 2),
                   lambda: node.delete("k"), lambda: node.contains("k")):
            with pytest.raises(NodeDownError):
                op()

    def test_recovering_node_serves(self):
        node = make_node()
        node.fail()
        node.begin_recovery()
        node.put("k", 9)
        assert node.get("k") == 9
        assert node.live

    def test_degraded_pays_the_penalty(self):
        node = make_node()
        assert node.service_now_s == pytest.approx(SERVICE_S)
        node.degrade()
        assert node.service_now_s == pytest.approx(
            SERVICE_S + DEGRADED_PENALTY_S)
        node.restore()
        assert node.service_now_s == pytest.approx(SERVICE_S)

    def test_describe_is_json_friendly(self):
        import json

        node = make_node()
        node.put("k", 1)
        summary = node.describe()
        json.dumps(summary)
        assert summary["state"] == "up"
        assert summary["occupancy"] == 1
