"""The federation experiment: contract checks, registration, render."""

import copy
import json

import pytest

from repro.engine import all_experiment_names, get_experiment
from repro.experiments import federation


@pytest.fixture(scope="module")
def cells():
    """One small drill shared by the assertions (3000 requests keeps
    the burn math and the TSDB tiers real, but fast)."""
    return federation.run(n_requests=3000, seed=0)


class TestContract:
    def test_all_checks_hold(self, cells):
        checks = federation.federation_checks(cells)
        assert all(checks.values()), [k for k, v in checks.items() if not v]
        assert len(checks) == 19  # 8 per arm + 3 cross-arm

    def test_merged_quantile_tracks_exact_pool(self, cells):
        for arm, cell in cells.items():
            assert cell["fed_p99_rel_err"] <= 0.02, arm
            assert cell["exact_p99_s"] > 0, arm

    def test_stalled_arm_is_actually_slower(self, cells):
        assert (cells["stalled"]["exact_p99_s"]
                > 2 * cells["healthy"]["exact_p99_s"])

    def test_paging_splits_by_vantage_point(self, cells):
        """The drill's whole point: the degraded node's burn is only
        visible from the federated vantage point."""
        assert cells["stalled"]["fed_alert_evals"] > 0
        assert sum(cells["stalled"]["node_alert_evals"]) == 0
        assert cells["healthy"]["fed_alert_evals"] == 0

    def test_no_node_window_reaches_the_volume_gate(self, cells):
        for arm, cell in cells.items():
            assert all(count < cell["min_events"]
                       for count in cell["node_window_counts"]), arm

    def test_scrape_overhead_is_bounded(self, cells):
        for arm, cell in cells.items():
            assert 0.0 < cell["scrape_utilization"] < 0.03, arm

    def test_tsdb_retention_and_downsampling_happened(self, cells):
        for arm, cell in cells.items():
            tsdb = cell["tsdb"]
            assert 0 < tsdb["raw_points"] <= tsdb["retention_points"], arm
            assert tsdb["aged_points"] > 0, arm
            assert tsdb["evictions"] == tsdb["evict_events"] > 0, arm

    def test_payload_is_json_serializable(self, cells):
        assert json.loads(json.dumps(cells)) == cells

    def test_same_seed_repeats_exactly(self, cells):
        """Scrapes are priced from each snapshot's shape, so no
        wall-clock value reaches the fabric: a second run from the same
        seed reads the same tails and the same scrape cost."""
        again = federation.run(n_requests=3000, seed=0)
        for arm, cell in cells.items():
            for field in ("exact_p99_s", "fed_p99_s", "scrape_utilization"):
                assert again[arm][field] == cell[field], (arm, field)


class TestChecksLogic:
    def test_a_quantile_miss_flips_its_check(self, cells):
        tampered = copy.deepcopy(cells)
        tampered["healthy"]["fed_p99_rel_err"] = 0.5
        checks = federation.federation_checks(tampered)
        assert not checks["healthy_merged_p99_within_2pct"]
        assert checks["stalled_merged_p99_within_2pct"]

    def test_scrape_overspend_flips_its_check(self, cells):
        tampered = copy.deepcopy(cells)
        tampered["stalled"]["scrape_utilization"] = 0.5
        assert not federation.federation_checks(tampered)[
            "stalled_scrape_overhead_under_3pct"]

    def test_a_silent_federated_engine_flips_its_check(self, cells):
        tampered = copy.deepcopy(cells)
        tampered["stalled"]["fed_alert_evals"] = 0
        assert not federation.federation_checks(tampered)[
            "stalled_federated_engine_pages"]

    def test_a_noisy_local_view_flips_its_check(self, cells):
        tampered = copy.deepcopy(cells)
        tampered["stalled"]["node_alert_evals"][0] = 7
        assert not federation.federation_checks(tampered)[
            "stalled_local_view_stays_quiet"]

    def test_an_unbounded_raw_tier_flips_its_check(self, cells):
        tampered = copy.deepcopy(cells)
        tampered["healthy"]["tsdb"]["raw_points"] = 10**6
        assert not federation.federation_checks(tampered)[
            "healthy_tsdb_retention_bounded"]


class TestRender:
    def test_render_surfaces_the_verdict(self, cells):
        data = {
            "n_requests": 3000,
            "sweeps": 24,
            "cells": cells,
            "checks": federation.federation_checks(cells),
        }
        text = federation.render(data)
        assert "Federation drill" in text
        assert "healthy" in text and "stalled" in text
        assert "Federation contract: ok (19/19 checks hold" in text


class TestRegistration:
    def test_federation_is_a_registered_experiment(self):
        assert "federation" in all_experiment_names()
        spec = get_experiment("federation")
        assert spec.uses_simulation is False
        assert spec.render is not None
