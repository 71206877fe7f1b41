"""The health experiment: drills, checks logic, registration, render."""

import json

import pytest

from repro.engine import all_experiment_names, get_experiment
from repro.experiments import health
from repro.obs import get_journal, get_registry
from repro.obs.health import HashQualityDetector, strict_bands
from repro.store import make_traffic


@pytest.fixture(scope="module")
def artifact_data():
    """One small end-to-end run shared by the slow-path assertions
    (scale 0 floors the drills at 200/400 serving requests and a
    512-access drift stream)."""
    return health.run(scale=0.0, seed=0)


class TestHottestShards:
    def test_deterministic_and_ranked(self):
        requests = make_traffic("zipfian", 500, seed=3)
        first = health.hottest_shards("pmod", requests, 8)
        second = health.hottest_shards("pmod", requests, 8)
        assert first == second
        assert len(first) == 2
        assert health.hottest_shards("pmod", requests, 8, top=1) == first[:1]

    def test_depends_on_scheme(self):
        requests = make_traffic("strided", 500, seed=0)
        assert set(health.hottest_shards("pmod", requests, 8)) <= set(
            range(8))


class TestChecksLogic:
    def base(self):
        return dict(
            healthy=[{"alerting": False}],
            stalled=[{"alerting": True}],
            alerts=[{"window": "fast", "slo": "serve-p99-latency"}],
            stall_payload={"statuses": {"ok": 10, "timeout": 5}},
            drift={"traditional": {"ok": False}, "pmod": {"ok": True},
                   "pdisp": {"ok": True}},
            chain={"serve.fault.stall": 0, "serve.timeout": 2,
                   "health.alert_fired": 9, "control.quarantine": 11},
            remediation={
                "actions": [{"kind": "quarantine"}],
                "post_alerts": [{"window": "slow",
                                 "slo": "serve-p99-latency"}],
            },
            flight_events=[{"fields": {
                "reason": "slo:serve-p99-latency:fast",
                "slowest": {"trace_id": "t01", "wall_s": 0.05,
                            "coverage": 0.97,
                            "stages": [{"name": "queue", "start_s": 0.0,
                                        "duration_s": 0.0485}]},
            }}],
        )

    def test_all_hold_on_the_contract_scenario(self):
        checks = health.health_checks(**self.base())
        assert all(checks.values())
        assert len(checks) == 12

    def test_missing_flight_dump_fails(self):
        kwargs = self.base()
        kwargs["flight_events"] = []
        checks = health.health_checks(**kwargs)
        assert not checks["flight_dump_journaled"]
        assert not checks["flight_waterfall_complete"]

    def test_incomplete_waterfall_fails(self):
        kwargs = self.base()
        kwargs["flight_events"][0]["fields"]["slowest"]["coverage"] = 0.4
        assert not health.health_checks(
            **kwargs)["flight_waterfall_complete"]

    def test_noisy_healthy_phase_fails(self):
        kwargs = self.base()
        kwargs["healthy"] = [{"alerting": True}]
        assert not health.health_checks(**kwargs)["healthy_phase_quiet"]

    def test_slow_ticket_alone_is_not_a_page(self):
        kwargs = self.base()
        kwargs["alerts"] = [{"window": "slow", "slo": "serve-p99-latency"}]
        assert not health.health_checks(**kwargs)["stall_fires_fast_page"]

    def test_out_of_order_or_missing_chain_fails(self):
        kwargs = self.base()
        kwargs["chain"] = {"serve.fault.stall": 5, "serve.timeout": 2,
                           "health.alert_fired": 9}
        assert not health.health_checks(**kwargs)["journal_chain_ordered"]
        kwargs["chain"] = {"serve.fault.stall": 0, "serve.timeout": None,
                           "health.alert_fired": 9}
        assert not health.health_checks(**kwargs)["journal_chain_ordered"]

    def test_prime_scheme_drift_fails_its_check(self):
        kwargs = self.base()
        kwargs["drift"]["pmod"]["ok"] = False
        assert not health.health_checks(**kwargs)["pmod_within_band"]

    def test_missing_quarantine_action_fails_the_loop_check(self):
        kwargs = self.base()
        kwargs["remediation"]["actions"] = [{"kind": "grow"}]
        assert not health.health_checks(**kwargs)["controller_quarantines"]

    def test_quarantine_must_follow_the_page(self):
        kwargs = self.base()
        kwargs["chain"]["control.quarantine"] = 4  # before the alert
        assert not health.health_checks(**kwargs)["quarantine_follows_page"]
        kwargs["chain"]["control.quarantine"] = None
        assert not health.health_checks(**kwargs)["quarantine_follows_page"]

    def test_lingering_fast_page_fails_recovery(self):
        kwargs = self.base()
        kwargs["remediation"]["post_alerts"] = [
            {"window": "fast", "slo": "serve-p99-latency"}]
        assert not health.health_checks(**kwargs)["fast_page_resolved"]


class TestDriftDrill:
    def test_figure5_ordering_on_strided_traffic(self):
        detector = HashQualityDetector(strict_bands(64),
                                       registry=get_registry(),
                                       journal=get_journal())
        drift = health.drift_drill(512, 64, seed=0, detector=detector)
        assert set(drift) == set(health.DRIFT_SCHEMES)
        assert not drift["traditional"]["ok"]
        assert drift["pmod"]["ok"]
        assert drift["pdisp"]["ok"]


class TestRun:
    def test_contract_holds_end_to_end(self, artifact_data):
        checks = artifact_data["checks"]
        assert all(checks.values()), [k for k, v in checks.items() if not v]

    def test_artifact_shape_and_serializability(self, artifact_data):
        for key in ("p99_target_s", "healthy", "stalled", "alerts",
                    "drift", "journal", "checks", "remediation",
                    "recovery"):
            assert key in artifact_data
        assert json.loads(json.dumps(artifact_data)) == artifact_data
        chain = artifact_data["journal"]["chain"]
        assert (chain["serve.fault.stall"] < chain["serve.timeout"]
                < chain["health.alert_fired"]
                < chain["control.quarantine"])

    def test_run_restores_global_observability_state(self, artifact_data):
        # The module fixture ran with globals disabled; run() must have
        # put them back (the obs conftest would also catch leaks, but
        # this pins the contract to run() itself).
        assert get_registry().enabled is False
        assert get_journal().enabled is False

    def test_render_surfaces_the_verdict(self, artifact_data):
        text = health.render(artifact_data)
        assert "SLO burn rates" in text
        assert "Hash-quality drift" in text
        assert "journal chain (seq):" in text
        assert "Health contract: ok (12/12 checks hold)" in text
        assert "flight recorder:" in text
        assert "remediation: actions=['quarantine']" in text
        assert "TRIPPED" in text  # traditional's row

    def test_a_second_drill_counts_only_its_own_flight_dumps(
            self, artifact_data):
        again = health.run(scale=0.0, seed=0)
        for data in (artifact_data, again):
            flight = data["flight"]
            assert flight["dumps"] == len(flight["dump_events"]) == 1


class TestRegistration:
    def test_health_is_a_registered_experiment(self):
        assert "health" in all_experiment_names()
        spec = get_experiment("health")
        assert spec.uses_simulation is False
        assert spec.render is not None
