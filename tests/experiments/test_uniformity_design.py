"""Tests for the uniformity-table and design-space experiments."""

import pytest

from repro.cpu import MachineConfig
from repro.engine import ExperimentContext, SimulationEngine, run_experiment
from repro.experiments import design_space, uniformity_table
from repro.experiments.common import RunConfig


class TestUniformityTable:
    @pytest.fixture(scope="class")
    def rows(self, paper_engine):
        return uniformity_table.run(paper_engine.config,
                                    traces=paper_engine.traces)

    def test_covers_all_23(self, rows):
        assert len(rows) == 23

    def test_full_agreement_with_paper(self, rows):
        disagreeing = [r.app for r in rows if not r.agrees_with_paper]
        assert not disagreeing, disagreeing

    def test_seven_nonuniform(self, rows):
        assert sum(r.non_uniform for r in rows) == 7

    def test_render(self, rows):
        out = uniformity_table.render(rows)
        assert "7/23" in out or "non-uniform" in out
        assert "tree" in out

    def test_ratios_follow_the_engine_l2(self):
        def ratios(machine):
            engine = SimulationEngine(RunConfig(scale=0.05), machine=machine)
            artifact = run_experiment("uniformity_table",
                                      ExperimentContext(engine))
            return {row["app"]: row["ratio"]
                    for row in artifact["data"]["rows"]}

        assert ratios(MachineConfig(l2_bytes=256 * 1024)) != ratios(None)


class TestDesignSpace:
    @pytest.fixture(scope="class")
    def points(self):
        return design_space.run("tree", RunConfig(scale=0.2),
                                associativities=(2, 4, 8))

    def test_full_grid(self, points):
        assert len(points) == 4 * 3

    def test_better_index_beats_more_ways(self, points):
        """pMod at 2 ways outperforms traditional at 8 on tree: the
        paper's central argument from the other direction."""
        by_key = {(p.indexing, p.assoc): p for p in points}
        assert by_key[("pmod", 2)].l2_misses < \
            by_key[("traditional", 8)].l2_misses

    def test_traditional_gains_little_from_ways(self, points):
        by_key = {(p.indexing, p.assoc): p for p in points}
        two = by_key[("traditional", 2)].l2_misses
        eight = by_key[("traditional", 8)].l2_misses
        assert eight > two * 0.8  # ways alone remove <20% of misses

    def test_rejects_bad_associativity(self):
        with pytest.raises(ValueError):
            design_space.run("lu", RunConfig(scale=0.05),
                             associativities=(3,))

    def test_render(self, points):
        out = design_space.render("tree", points)
        assert "tree" in out and "pmod" in out
