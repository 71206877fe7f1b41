"""RemediationController: observe → decide → apply against a live store."""

import pytest

from repro.control import Action, RemediationController
from repro.control.controller import MAX_QUARANTINE_FRACTION
from repro.obs import Journal
from repro.obs.health import Alert, DriftStatus
from repro.store import ShardedStore


def page(slo="serve-p99-latency", window="fast"):
    return Alert(slo=slo, window=window,
                 severity="page" if window == "fast" else "ticket",
                 burn_rate=20.0, threshold=14.4, budget_rule=0.05,
                 message=f"{slo} burning")


def trip(scheme, balance=50.0):
    return DriftStatus(scheme=scheme, balance=balance, concentration=1.0,
                       balance_max=2.0, concentration_max=10.0,
                       balance_ok=False, concentration_ok=True)


class FakeSloEngine:
    """Evaluate is a no-op; active alerts are whatever the test seeds."""

    def __init__(self, alerts=()):
        self.alerts = list(alerts)
        self.evaluations = 0

    def evaluate(self):
        self.evaluations += 1
        return self.alerts

    def active_alerts(self):
        return list(self.alerts)


class FakeDetector:
    def __init__(self, tripped=(), adversary=()):
        self._tripped = list(tripped)
        self._adversary = list(adversary)

    def evaluate(self):
        return {}

    def tripped(self):
        return list(self._tripped)

    def grade_adversary(self, telemetry):
        return list(self._adversary)

    def adversary_tripped(self):
        return list(self._adversary)

    def adversary_streak(self, scheme):
        return 1 if any(s.scheme == scheme for s in self._adversary) else 0


def make_controller(scheme="pmod", n_shards=61, alerts=(), tripped=(),
                    journal=None):
    journal = journal or Journal()
    store = ShardedStore(n_shards, scheme, shard_capacity=256, assoc=16)
    controller = RemediationController(
        store, FakeSloEngine(alerts), detector=FakeDetector(tripped),
        journal=journal)
    return controller, store, journal


class TestObserve:
    def test_healthy_store_yields_no_actions(self):
        controller, store, _ = make_controller()
        assert controller.step() == []
        assert store.epoch == 0
        assert controller.steps == 1

    def test_fault_events_are_consumed_once(self):
        controller, _, journal = make_controller()
        journal.enable()
        journal.emit("serve.fault.stall", queue_id=4, stall_s=0.2)
        journal.emit("serve.fault.stall", queue_id=4, stall_s=0.2)
        journal.emit("serve.fault.stall", queue_id=9, stall_s=0.2)
        first = controller.observe()
        assert first.stalled_shards == [4, 9]
        # The cursor advanced: the same events never re-trigger.
        assert controller.observe().stalled_shards == []


class TestQuarantineRule:
    def test_page_plus_stalls_quarantines(self):
        controller, store, journal = make_controller(alerts=[page()])
        journal.enable()
        journal.emit("serve.fault.stall", queue_id=5)
        actions = controller.step()
        assert [a.kind for a in actions] == ["quarantine"]
        assert store.routing.quarantined == frozenset([5])
        kinds = [e.kind for e in journal.find("control.quarantine")]
        assert kinds == ["control.quarantine"]

    def test_stalls_without_a_page_do_nothing(self):
        controller, store, journal = make_controller()  # no alerts
        journal.enable()
        journal.emit("serve.fault.stall", queue_id=5)
        assert controller.step() == []
        assert store.routing.quarantined == frozenset()

    def test_page_without_stall_targets_does_nothing(self):
        controller, store, _ = make_controller(alerts=[page()])
        assert controller.step() == []
        assert store.routing.quarantined == frozenset()

    def test_slow_ticket_is_not_a_page(self):
        controller, store, journal = make_controller(
            alerts=[page(window="slow")])
        journal.enable()
        journal.emit("serve.fault.stall", queue_id=5)
        assert controller.step() == []

    def test_quarantine_fraction_caps_the_blast_radius(self):
        controller, store, journal = make_controller(alerts=[page()])
        journal.enable()
        for queue_id in range(40):
            journal.emit("serve.fault.stall", queue_id=queue_id)
        controller.step()
        # floor(61 * 0.5) = 30 shards at most, not all forty.
        assert MAX_QUARANTINE_FRACTION == 0.5
        assert len(store.routing.quarantined) == 30


class TestDriftRule:
    def test_drift_on_foreign_scheme_swaps_to_target(self):
        controller, store, _ = make_controller(
            scheme="traditional", n_shards=64,
            tripped=[trip("traditional")])
        actions = controller.step()
        assert [a.kind for a in actions] == ["scheme_swap"]
        assert store.scheme == "pmod"
        assert store.epoch == 1
        assert not store.migrating  # migration ran to completion
        assert actions[0].detail["migration"]["left_behind"] == 0

    def test_drift_on_target_scheme_grows_the_ladder(self):
        controller, store, _ = make_controller(tripped=[trip("pmod")])
        actions = controller.step()
        assert [a.kind for a in actions] == ["grow"]
        assert store.n_shards == 67  # 61 -> next prime

    def test_drift_on_another_scheme_is_ignored(self):
        controller, store, _ = make_controller(
            tripped=[trip("traditional")])  # store runs pmod
        assert controller.step() == []
        assert store.epoch == 0


class TestCapacityRule:
    def test_reject_page_grows(self):
        controller, store, _ = make_controller(
            alerts=[page(slo="serve-reject-rate")])
        actions = controller.step()
        assert [a.kind for a in actions] == ["grow"]
        assert store.n_shards == 67

    def test_one_routing_change_per_step(self):
        # Drift and a reject page together still produce one reshard.
        controller, _, _ = make_controller(
            scheme="traditional", n_shards=64,
            alerts=[page(slo="serve-reject-rate")],
            tripped=[trip("traditional")])
        observation = controller.observe()
        actions = controller.decide(observation)
        assert [a.kind for a in actions] == ["scheme_swap"]


class TestApply:
    def test_data_survives_a_controller_reshard(self):
        controller, store, _ = make_controller(tripped=[trip("pmod")])
        for key in range(300):
            store.put(key, key)
        controller.step()
        assert all(store.get(k) == k for k in range(300))

    def test_shrink_is_operator_only(self):
        controller, store, _ = make_controller()
        action = controller.shrink("scale-down window")
        assert action.kind == "shrink"
        assert store.n_shards == 59  # prev prime below 61
        # decide() never produces a shrink on its own.
        assert all(a.kind != "shrink"
                   for a in controller.decide(controller.observe()))

    def test_unknown_action_kind_raises(self):
        controller, _, _ = make_controller()
        with pytest.raises(ValueError, match="unknown action"):
            controller.apply(Action(kind="reboot", reason="nope"))

    def test_actions_are_journaled(self):
        controller, _, journal = make_controller(tripped=[trip("pmod")])
        journal.enable()
        controller.step()
        events = journal.find("control.action")
        assert len(events) == 1
        assert events[0].fields["action"] == "grow"
        assert events[0].fields["scheme"] == "pmod"


class TestNodeQuarantineRule:
    """The controller has no node-level rule: node events are not its
    input."""

    def test_without_cluster_node_events_are_ignored(self):
        journal = Journal()
        controller, store, _ = make_controller(journal=journal)
        journal.emit("cluster.node_down", node=0, live_nodes=4, epoch=0)
        assert controller.step() == []
