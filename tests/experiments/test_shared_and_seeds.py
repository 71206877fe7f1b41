"""Tests for the shared-cache and seed-robustness experiments."""

import pytest

from repro.experiments import seeds, shared_cache
from repro.experiments.common import RunConfig


class TestSharedCache:
    @pytest.fixture(scope="class")
    def results(self):
        rows = shared_cache.run(pairs=(("tree", "swim"),),
                                config=RunConfig(scale=0.2),
                                schemes=("base", "pmod"))
        return {r.scheme: r for r in rows}

    def test_pmod_still_wins_with_corunner(self, results):
        """The conflict victim keeps most of its win while timesharing."""
        assert results["pmod"].combined_misses < \
            results["base"].combined_misses * 0.8

    def test_interference_bounded(self, results):
        for scheme, r in results.items():
            assert 0.8 < r.interference_factor < 2.0, scheme

    def test_render(self, results):
        out = shared_cache.render(list(results.values()))
        assert "tree+swim" in out


class TestSeedRobustness:
    @pytest.fixture(scope="class")
    def spreads(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(seeds, "WORKLOADS", ("tree", "lu"))
            patch.setattr(seeds, "SCHEMES", ("pmod",))
            patch.setattr(seeds, "SEEDS", (0, 1))
            return {(s.workload, s.scheme): s
                    for s in seeds.run(scale=0.2)}

    def test_tree_wins_under_every_seed(self, spreads):
        assert spreads[("tree", "pmod")].minimum > 1.5

    def test_lu_neutral_under_every_seed(self, spreads):
        s = spreads[("lu", "pmod")]
        assert 0.97 < s.minimum and s.maximum < 1.03

    def test_spread_is_small(self, spreads):
        for key, s in spreads.items():
            assert s.relative_spread < 0.15, key

    def test_render(self, spreads):
        out = seeds.render(list(spreads.values()))
        assert "spread" in out
