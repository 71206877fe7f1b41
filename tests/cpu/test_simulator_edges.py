"""Edge-case and invariant tests for the timing simulator."""

import numpy as np
import pytest

from repro.cache import CacheHierarchy, SetAssociativeCache
from repro.cpu import MachineConfig, Simulator, simulate_scheme
from repro.hashing import TraditionalIndexing
from repro.memory import DramModel
from repro.trace import Trace, TraceMetadata, strided_stream


def trace_of(addresses, **meta):
    addresses = np.asarray(addresses, dtype=np.uint64)
    return Trace("edge", addresses, np.zeros(len(addresses), dtype=bool),
                 TraceMetadata(**meta))


class TestSingleAccess:
    def test_one_access_runs(self):
        r = simulate_scheme(trace_of([0]), "base")
        assert r.l2_misses == 1
        assert r.cycles > 0

    def test_components_non_negative(self):
        r = simulate_scheme(trace_of([0, 64, 128]), "pmod")
        assert r.busy >= 0 and r.other_stalls >= 0 and r.memory_stall >= 0


class TestMonotonicity:
    def test_more_conflicts_cost_more_cycles(self):
        friendly = trace_of(strided_stream(0, 64, 64, repeats=30))
        hostile = trace_of(strided_stream(0, 2048 * 64, 64, repeats=30))
        base_friendly = simulate_scheme(friendly, "base")
        base_hostile = simulate_scheme(hostile, "base")
        assert base_hostile.cycles > base_friendly.cycles

    def test_stall_scales_with_misses_across_schemes(self):
        """For one trace, the scheme with fewer L2 misses never has a
        larger memory stall (identical CPU-side components)."""
        hostile = trace_of(strided_stream(0, 2048 * 64, 64, repeats=30))
        base = simulate_scheme(hostile, "base")
        pmod = simulate_scheme(hostile, "pmod")
        assert pmod.l2_misses < base.l2_misses
        assert pmod.memory_stall < base.memory_stall
        assert pmod.busy == base.busy
        assert pmod.other_stalls == base.other_stalls


class TestWarmupEdges:
    def test_zero_warmup_is_default(self):
        t = trace_of(strided_stream(0, 64, 500))
        assert simulate_scheme(t, "base").cycles == \
            simulate_scheme(t, "base", warmup_fraction=0.0).cycles

    def test_warmup_shrinks_measured_accesses(self):
        t = trace_of(strided_stream(0, 64, 1000))
        full = simulate_scheme(t, "base")
        warm = simulate_scheme(t, "base", warmup_fraction=0.5)
        assert warm.busy == pytest.approx(full.busy / 2)

    def test_negative_warmup_rejected(self):
        t = trace_of([0])
        with pytest.raises(ValueError):
            simulate_scheme(t, "base", warmup_fraction=-0.1)


class TestConfigVariations:
    def test_narrower_issue_width_raises_busy(self):
        t = trace_of(strided_stream(0, 64, 400), instructions_per_access=8)
        wide = simulate_scheme(t, "base", MachineConfig())
        import dataclasses
        narrow_cfg = dataclasses.replace(MachineConfig(), issue_width=2)
        narrow = simulate_scheme(t, "base", narrow_cfg)
        assert narrow.busy == pytest.approx(3 * wide.busy)

    def test_zero_exposure_hides_l2_hits(self):
        import dataclasses
        cfg = dataclasses.replace(MachineConfig(), l2_exposed_fraction=0.0)
        # Footprint fitting L2 but not L1: after the cold pass all L2
        # hits, which cost nothing at zero exposure.
        t = trace_of(strided_stream(0, 64, 1024, repeats=3))
        r = simulate_scheme(t, "base", cfg)
        cold = simulate_scheme(trace_of(strided_stream(0, 64, 1024)),
                               "base", cfg)
        assert r.memory_stall == pytest.approx(cold.memory_stall, rel=0.01)


class TestHierarchyDepth:
    """The timing model charges L1 hits, L2 hits and DRAM; a deeper or
    shallower hierarchy would be timed wrongly, so it is refused."""

    @pytest.mark.parametrize("depth", [1, 3])
    def test_rejects_other_depths(self, depth):
        levels = [(SetAssociativeCache(4 << level, 2,
                                       TraditionalIndexing(4 << level)), 64)
                  for level in range(depth)]
        config = MachineConfig.paper_default()
        with pytest.raises(ValueError, match="L1\\+L2"):
            Simulator(CacheHierarchy(levels), DramModel(config.dram_config()),
                      config)
