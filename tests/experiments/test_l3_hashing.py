"""Tests for the three-level LLC-hashing experiment."""

from collections import Counter

import pytest

from repro.experiments import l3_hashing
from repro.experiments.common import RunConfig
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def results():
    rows = l3_hashing.run(workloads=("tree", "mcf", "lu"),
                          config=RunConfig(scale=0.25))
    return {(r.workload, r.l3_indexing): r for r in rows}


class TestL3Hashing:
    def test_tree_keeps_its_win_at_the_llc(self, results):
        base = results[("tree", "traditional")].l3_misses
        pmod = results[("tree", "pmod")].l3_misses
        assert pmod < base * 0.8

    def test_mcf_absorbed_by_llc_associativity(self, results):
        """mcf crowds a quarter of the sets at ~9 lines each — within
        the LLC's 16 ways, so rehashing has nothing left to fix."""
        base = results[("mcf", "traditional")].l3_misses
        pmod = results[("mcf", "pmod")].l3_misses
        assert pmod == pytest.approx(base, rel=0.05)

    def test_lu_never_cares(self, results):
        base = results[("lu", "traditional")].l3_misses
        for key in ("pmod", "pdisp"):
            assert results[("lu", key)].l3_misses == pytest.approx(
                base, rel=0.05)

    def test_mid_level_filters_llc_traffic(self, results):
        """lu's tile reuse is fully absorbed above the LLC; tree's
        crowded lines thrash straight through the traditional L2."""
        lu = results[("lu", "traditional")]
        tree = results[("tree", "traditional")]
        assert lu.l3_accesses < 0.25 * tree.l3_accesses

    def test_render(self, results):
        out = l3_hashing.render(list(results.values()))
        assert "3-level" in out and "tree" in out


#: (L3 misses, L3 accesses) per (workload, L3 indexing) at scale 0.25.
L3_COUNTS = {
    ("tree", "traditional"): (9990, 29933),
    ("tree", "pmod"): (6900, 29933),
    ("tree", "pdisp"): (6900, 29933),
    ("mcf", "traditional"): (23346, 33457),
    ("mcf", "pmod"): (23346, 33457),
    ("mcf", "pdisp"): (23346, 33457),
    ("lu", "traditional"): (3000, 3000),
    ("lu", "pmod"): (3000, 3000),
    ("lu", "pdisp"): (3000, 3000),
}


class TestRecordedChain:
    """Recorded counts of the three-level write-back chain, which only
    this experiment runs."""

    def test_l3_counts(self, results):
        assert {cell: (r.l3_misses, r.l3_accesses)
                for cell, r in results.items()} == L3_COUNTS

    def test_mcf_level_by_level(self):
        """mcf writes a fifth of its accesses, so dirty victims cascade
        through every level; each level's counters and the DRAM
        traffic are pinned."""
        trace = get_workload("mcf").trace(scale=0.25, seed=0)
        hierarchy = l3_hashing.build_three_level("traditional")
        levels = Counter()
        reads = writes = 0
        for address, is_write in zip(trace.addresses.tolist(),
                                     trace.is_write.tolist()):
            outcome = hierarchy.access(address, is_write)
            levels[outcome.level] += 1
            reads += len(outcome.memory_reads)
            writes += len(outcome.memory_writes)
        assert levels == {"l1": 130, "l2": 1542, "l3": 4982, "mem": 23346}
        assert (reads, writes) == (23346, 208)
        # (reads, writes, hits, misses, writebacks) per level, L1 first.
        assert [(c.stats.reads, c.stats.writes, c.stats.hits,
                 c.stats.misses, c.stats.writebacks)
                for c in hierarchy.caches] == [
            (23979, 6021, 130, 29870, 5960),
            (29870, 5960, 7502, 28328, 5129),
            (28328, 5129, 10111, 23346, 208),
        ]


class TestChiSquare:
    def test_uniform_counts_high_p(self):
        import numpy as np
        from repro.hashing import chi_square_uniformity
        rng = np.random.default_rng(1)
        counts = rng.poisson(100, size=512)
        assert chi_square_uniformity(counts) > 0.001

    def test_concentrated_counts_reject(self):
        import numpy as np
        from repro.hashing import chi_square_uniformity
        counts = np.ones(512)
        counts[:16] = 500
        assert chi_square_uniformity(counts) < 1e-10

    def test_validation(self):
        import numpy as np
        from repro.hashing import chi_square_uniformity
        with pytest.raises(ValueError):
            chi_square_uniformity(np.array([5.0]))
        with pytest.raises(ValueError):
            chi_square_uniformity(np.zeros(4))
