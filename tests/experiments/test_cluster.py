"""The cluster experiment: contract checks, registration, render."""

import copy
import json

import pytest

from repro.engine import all_experiment_names, get_experiment
from repro.experiments import cluster
from repro.experiments.__main__ import main


@pytest.fixture(scope="module")
def cells():
    """One small drill shared by the assertions (3000 requests keeps
    the re-replication phase real — multiple bounded chunks at budget
    64 — but fast)."""
    return cluster.run(n_requests=3000, budget=64, seed=0)


class TestFleetGeometry:
    def test_prime_levels_pay_table1_fragmentation(self, cells):
        """8 physical nodes -> 7 usable under pMod; 16 shards -> 13."""
        prime = cells["pmod+pmod"]
        assert prime["n_nodes"] == 7
        assert prime["shards_per_node"] == 13

    def test_pow2_stack_keeps_the_full_fleet(self, cells):
        pow2 = cells["traditional+traditional"]
        assert pow2["n_nodes"] == 8
        assert pow2["shards_per_node"] == 16

    def test_mixed_stack_is_prime_outer_pow2_inner(self, cells):
        mixed = cells["pmod+traditional"]
        assert mixed["n_nodes"] == 7
        assert mixed["shards_per_node"] == 16


class TestContract:
    def test_all_checks_hold(self, cells):
        checks = cluster.cluster_checks(cells)
        assert all(checks.values()), [k for k, v in checks.items() if not v]
        assert len(checks) == 18  # 5 per stack + 3 ordering

    def test_zero_key_loss_is_exact(self, cells):
        for stack, cell in cells.items():
            assert cell["zero_loss"]["missing"] == 0, stack
            assert cell["zero_loss"]["mismatched"] == 0, stack
            assert cell["zero_loss"]["model_size"] > 0, stack

    def test_served_straight_through_the_outage(self, cells):
        for stack, cell in cells.items():
            assert cell["during_loss"]["failed_reads"] == 0, stack
            assert cell["during_loss"]["requests"] > 0, stack

    def test_rereplication_is_bounded_and_journaled(self, cells):
        for stack, cell in cells.items():
            chain = cell["journal_chain"]
            assert 0 < chain["max_chunk_moved"] <= 64, stack
            assert chain["chunks"] >= 2, stack  # budget 64 forces chunks
            assert chain["down_seq"] < chain["first_chunk_seq"], stack
            assert chain["first_chunk_seq"] < chain["up_seq"], stack

    def test_figure5_ordering_on_the_composed_map(self, cells):
        prime = cells["pmod+pmod"]
        pow2 = cells["traditional+traditional"]
        assert prime["balance_healthy"] < pow2["balance_healthy"]
        assert prime["balance_rebalanced"] < pow2["balance_rebalanced"]
        assert prime["balance_recovered"] < pow2["balance_recovered"]

    def test_payload_is_json_serializable(self, cells):
        assert json.loads(json.dumps(cells)) == cells


class TestChecksLogic:
    def test_a_lost_key_flips_its_check(self, cells):
        tampered = copy.deepcopy(cells)
        tampered["pmod+pmod"]["zero_loss"]["missing"] = 3
        checks = cluster.cluster_checks(tampered)
        assert not checks["pmod+pmod_zero_key_loss"]
        assert checks["pmod+traditional_zero_key_loss"]

    def test_a_failed_read_flips_its_check(self, cells):
        tampered = copy.deepcopy(cells)
        tampered["pmod+traditional"]["during_loss"]["failed_reads"] = 1
        assert not cluster.cluster_checks(tampered)[
            "pmod+traditional_served_through_loss"]

    def test_a_budget_breach_flips_its_check(self, cells):
        tampered = copy.deepcopy(cells)
        tampered["pmod+pmod"]["journal_chain"]["max_chunk_moved"] = 10**6
        assert not cluster.cluster_checks(tampered)[
            "pmod+pmod_chunks_under_budget"]

    def test_a_broken_journal_chain_flips_its_check(self, cells):
        tampered = copy.deepcopy(cells)
        tampered["pmod+pmod"]["journal_chain"]["up_seq"] = -1
        assert not cluster.cluster_checks(tampered)[
            "pmod+pmod_journal_chain_ordered"]

    def test_ordering_regression_flips_its_check(self, cells):
        tampered = copy.deepcopy(cells)
        tampered["pmod+pmod"]["balance_rebalanced"] = 10**6
        assert not cluster.cluster_checks(tampered)[
            "pmod_stack_beats_pow2_stack_after_rebalance"]


class TestTracedCheck:
    def test_untraced_cells_lack_coverage_checks(self, cells):
        assert not any(name.endswith("_stage_coverage")
                       for name in cluster.cluster_checks(cells))

    def test_traced_run_without_attribution_fails_coverage(self, cells):
        checks = cluster.cluster_checks(cells, traced=True)
        assert checks["pmod+pmod_stage_coverage"] is False

    def test_traced_check_after_an_untraced_warm_cache(
            self, tmp_path, capsys, monkeypatch):
        """A traced run must not reuse the untraced run's cached cells
        (they carry no attribution): it measures its own, publishes
        every stage-coverage check, and passes the gate."""
        monkeypatch.setattr(cluster, "DEFAULT_STACKS",
                            ("pmod+pmod", "traditional+traditional"))
        args = ["cluster", "--scale", "0.1",
                "--cache-dir", str(tmp_path / "cache")]
        main(args)
        artifact_path = tmp_path / "traced.json"
        main([*args, "--trace", "--check",
              "--artifact", str(artifact_path)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "cluster-check: ok"
        checks = json.loads(artifact_path.read_text())["data"]["checks"]
        assert checks["pmod+pmod_stage_coverage"]
        assert checks["traditional+traditional_stage_coverage"]
        assert all(checks.values()), checks


class TestRender:
    def test_render_surfaces_the_verdict(self, cells):
        data = {
            "n_requests": 3000,
            "replicas": 2,
            "budget": 64,
            "topology": "star",
            "cells": cells,
            "checks": cluster.cluster_checks(cells),
        }
        text = cluster.render(data)
        assert "Cluster drill" in text
        assert "pmod+pmod" in text
        assert "Cluster contract: ok (18/18 checks hold" in text


class TestRegistration:
    def test_cluster_is_a_registered_experiment(self):
        assert "cluster" in all_experiment_names()
        spec = get_experiment("cluster")
        assert spec.uses_simulation is False
        assert spec.render is not None
