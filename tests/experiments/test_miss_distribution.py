"""Tests for Figure 13 (tree's per-set miss distribution)."""

import pytest

from repro.cpu import MachineConfig
from repro.engine import ExperimentContext, SimulationEngine, run_experiment
from repro.experiments import miss_distribution
from repro.experiments.common import RunConfig


@pytest.fixture(scope="module")
def results(paper_engine):
    return miss_distribution.run(paper_engine.config)


class TestFigure13:
    def test_base_concentrates_misses(self, results):
        """Figure 13a: the vast majority of misses sit in ~10% of sets."""
        assert results["base"].top_fraction_share(0.1) > 0.5

    def test_pmod_flattens_distribution(self, results):
        """Figure 13b: pMod spreads the misses almost uniformly."""
        assert results["pmod"].top_fraction_share(0.1) < 0.3

    def test_pmod_removes_misses(self, results):
        assert results["pmod"].total < results["base"].total

    def test_coefficient_of_variation_drops(self, results):
        assert (results["pmod"].coefficient_of_variation()
                < results["base"].coefficient_of_variation() / 2)

    def test_render(self, results):
        out = miss_distribution.render(results)
        assert "Figure 13" in out
        assert "top 10%" in out


class TestCustomWorkload:
    def test_uniform_app_shows_no_concentration(self):
        results = miss_distribution.run(RunConfig(scale=0.1), workload="lu")
        assert results["base"].top_fraction_share(0.1) < 0.4


class TestEngineMachine:
    def test_distributions_follow_the_engine_l2(self, tmp_path):
        """A 256 KB L2 has 1024 sets (pMod uses the prime 1021 of
        them); one cache directory keeps both machines' cells apart."""
        def distributions(machine):
            engine = SimulationEngine(RunConfig(scale=0.05), machine=machine,
                                      cache_dir=tmp_path)
            artifact = run_experiment("miss_distribution",
                                      ExperimentContext(engine))
            return artifact["data"]["distributions"]

        default = distributions(None)
        small = distributions(MachineConfig(l2_bytes=256 * 1024))
        assert {scheme: len(counts) for scheme, counts in default.items()} \
            == {"base": 2048, "pmod": 2039}
        assert {scheme: len(counts) for scheme, counts in small.items()} \
            == {"base": 1024, "pmod": 1021}
        assert distributions(None) == default
