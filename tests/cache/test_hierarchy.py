"""Tests for the write-back hierarchy, two levels and three."""

import pytest

from repro.cache import (
    CacheHierarchy,
    FullyAssociativeCache,
    SetAssociativeCache,
    SkewedAssociativeCache,
)
from repro.hashing import SkewedXorFamily, TraditionalIndexing


def make_hierarchy(l2=None):
    """Small hierarchy: L1 4 sets x 2 way x 32B; L2 16 sets x 2 way x 64B."""
    l1 = SetAssociativeCache(4, 2, TraditionalIndexing(4), name="L1")
    if l2 is None:
        l2 = SetAssociativeCache(16, 2, TraditionalIndexing(16), name="L2")
    return CacheHierarchy([(l1, 32), (l2, 64)])


def make_three_level():
    l1 = SetAssociativeCache(4, 2, TraditionalIndexing(4), name="L1")
    l2 = SetAssociativeCache(16, 2, TraditionalIndexing(16), name="L2")
    l3 = SetAssociativeCache(64, 2, TraditionalIndexing(64), name="L3")
    return CacheHierarchy([(l1, 32), (l2, 64), (l3, 64)])


class TestLevels:
    def test_cold_access_goes_to_memory(self):
        h = make_hierarchy()
        outcome = h.access(0x1000)
        assert outcome.level == "mem"
        assert outcome.memory_reads == [0x1000 >> 6]

    def test_second_access_hits_l1(self):
        h = make_hierarchy()
        h.access(0x1000)
        assert h.access(0x1000).level == "l1"

    def test_l2_hit_after_l1_eviction(self):
        h = make_hierarchy()
        # L1 blocks 0, 4, 8 all map to L1 set 0; L2 blocks 0, 2, 4 map
        # to distinct L2 sets, so block 0 survives in L2.
        h.access(0)
        h.access(128)
        h.access(256)             # evicts L1 block 0
        outcome = h.access(0)
        assert outcome.level == "l2"
        assert not outcome.touched_memory

    def test_same_l2_block_two_l1_blocks(self):
        """Two adjacent 32B lines share one 64B L2 line."""
        h = make_hierarchy()
        h.access(0)
        outcome = h.access(32)
        assert outcome.level == "l2"  # L1 miss, L2 hit (same 64B block)

    def test_rejects_negative_address(self):
        h = make_hierarchy()
        with pytest.raises(ValueError):
            h.access(-1)

    def test_rejects_l2_lines_smaller_than_l1(self):
        l1 = SetAssociativeCache(4, 2, TraditionalIndexing(4))
        l2 = SetAssociativeCache(16, 2, TraditionalIndexing(16))
        with pytest.raises(ValueError):
            CacheHierarchy([(l1, 64), (l2, 32)])


class TestWritebackFlow:
    def test_dirty_l1_victim_written_to_l2(self):
        h = make_hierarchy()
        h.access(0, is_write=True)
        h.access(4096)
        before = h.l2.stats.writes
        h.access(8192)  # evicts dirty L1 block 0 -> L2 write
        assert h.l2.stats.writes == before + 1

    def test_dirty_l2_victim_goes_to_memory(self):
        h = make_hierarchy()
        h.access(0, is_write=True)
        # Evict block 0 from L1 (dirty -> L2 now dirty), then storm L2
        # set 0 to evict it from L2.
        h.access(4096)
        h.access(8192)
        writes = []
        for i in range(1, 8):
            out = h.access(i * 1024)  # L2 set 0 under traditional (16 sets*64B)
            writes += out.memory_writes
        assert 0 in writes  # block 0 eventually written back to DRAM

    def test_l1_victim_allocating_in_l2_fetches_from_memory(self):
        """A dirty L1 victim that misses L2 must allocate: memory read."""
        h = make_hierarchy()
        h.access(0, is_write=True)   # L1 block 0 dirty; L2 block 0 resident
        h.l2.invalidate(0)           # model L2 losing the line
        h.access(128)                # L1 set 0 fills second way
        out = h.access(256)          # evicts dirty L1 block 0 -> L2 write miss
        assert 0 in out.memory_reads  # write-allocate fill


class TestAlternativeL2s:
    def test_fully_associative_l2(self):
        l2 = FullyAssociativeCache(32)
        h = make_hierarchy(l2=l2)
        h.access(0)
        h.access(4096)
        h.access(8192)
        assert h.access(0).level == "l2"

    def test_skewed_l2(self):
        l2 = SkewedAssociativeCache(SkewedXorFamily(8, 4))
        h = make_hierarchy(l2=l2)
        out = h.access(0x2040)
        assert out.level == "mem"
        h.access(0x2040)
        assert h.access(0x2040).level == "l1"

    def test_memory_traffic_conservation(self):
        """Every memory read corresponds to an L2 miss (incl. allocate-on-
        write misses)."""
        h = make_hierarchy()
        reads = 0
        for a in range(0, 65536, 32):
            reads += len(h.access(a, is_write=(a % 96 == 0)).memory_reads)
        assert reads == h.l2.stats.misses


class TestConstruction:
    def test_needs_levels(self):
        with pytest.raises(ValueError):
            CacheHierarchy([])

    def test_rejects_shrinking_lines(self):
        l1 = SetAssociativeCache(4, 2, TraditionalIndexing(4))
        l2 = SetAssociativeCache(16, 2, TraditionalIndexing(16))
        l3 = SetAssociativeCache(64, 2, TraditionalIndexing(64))
        with pytest.raises(ValueError):
            CacheHierarchy([(l1, 32), (l2, 128), (l3, 64)])

    def test_repr_names_levels(self):
        assert "L1 -> L2 -> L3" in repr(make_three_level())

    def test_l1_and_l2_are_the_first_two_levels(self):
        h = make_three_level()
        assert (h.l1, h.l2) == tuple(h.caches[:2])


class TestThreeLevelAccessFlow:
    def test_cold_goes_to_memory(self):
        h = make_three_level()
        out = h.access(0x1000)
        assert out.level == "mem"
        assert out.memory_reads == [0x1000 >> 6]

    def test_warm_hits_l1(self):
        h = make_three_level()
        h.access(0x1000)
        assert h.access(0x1000).level == "l1"

    def test_l2_hit_after_l1_eviction(self):
        h = make_three_level()
        # L1 blocks 0, 4, 8 share L1 set 0; L2 blocks 0, 2, 4 differ.
        h.access(0)
        h.access(128)
        out = h.access(256)
        assert out.level == "mem"
        assert h.access(0).level == "l2"

    def test_l3_hit_after_l2_eviction(self):
        h = make_three_level()
        # L2 blocks 0, 16, 32 share L2 set 0 (16 sets); L3 (64 sets)
        # keeps them in sets 0, 16, 32.  L1 blocks 0, 32, 64 share set 0.
        h.access(0)
        h.access(1024)
        h.access(2048)          # evicts block 0 from L1 and L2
        out = h.access(0)
        assert out.level == "l3"
        assert not out.touched_memory

    def test_negative_address(self):
        with pytest.raises(ValueError):
            make_three_level().access(-1)


class TestThreeLevelWritebacks:
    def test_dirty_chain_to_memory(self):
        """Block 0, dirty, is pushed out of all three levels by the
        storm of its set-0 aliases (4096B apart: the 64-set, 2-way L3's
        stride) and reaches memory exactly once; clean traffic writes
        nothing back."""
        h = make_three_level()
        h.access(0, is_write=True)
        writes = []
        for i in range(1, 12):
            writes += h.access(i * 4096).memory_writes
        assert writes == [0]
        clean = make_three_level()
        for i in range(12):
            assert not clean.access(i * 4096 + 64).memory_writes

    def test_memory_reads_match_l3_misses_for_reads(self):
        h = make_three_level()
        reads = 0
        for i in range(500):
            reads += len(h.access(i * 96).memory_reads)
        assert reads == h.caches[2].stats.misses
