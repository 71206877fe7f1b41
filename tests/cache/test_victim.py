"""Tests for the victim cache."""

import pytest

from repro.cache import SetAssociativeCache, VictimCache
from repro.hashing import TraditionalIndexing


def make(n_sets=16, assoc=1, entries=2):
    main = SetAssociativeCache(n_sets, assoc, TraditionalIndexing(n_sets))
    return VictimCache(main, n_victim_entries=entries)


class TestVictimCache:
    def test_rejects_empty_buffer(self):
        with pytest.raises(ValueError):
            make(entries=0)

    def test_cold_miss(self):
        vc = make()
        assert not vc.access(0).hit

    def test_recent_eviction_hits_buffer(self):
        vc = make()
        vc.access(0)
        vc.access(16)        # evicts 0 into the buffer
        result = vc.access(0)  # victim hit: counts as a hit
        assert result.hit
        assert vc.victim_hits == 1

    def test_two_block_pingpong_fully_absorbed(self):
        """The canonical victim-cache win: two conflicting lines
        alternate; after warmup every access hits."""
        vc = make()
        for _ in range(20):
            vc.access(0)
            vc.access(16)
        stats = vc.stats
        assert stats.misses == 2          # the two cold misses only
        assert stats.hits == 38

    def test_victim_hit_reclassifies_its_set_miss(self):
        """A buffer hit takes its miss back from the per-set counts as
        well as from the total (Figure 13 reads the per-set ones)."""
        vc = make()
        for _ in range(20):
            vc.access(0)
            vc.access(16)
        stats = vc.stats
        assert stats.set_misses.sum() == stats.misses == 2
        assert stats.set_misses[0] == 2

    def test_wide_conflict_overwhelms_buffer(self):
        """More conflicting lines than buffer entries: the buffer can't
        keep up — exactly why indexing beats buffering at scale."""
        vc = make(entries=2)
        lines = [0, 16, 32, 48, 64]       # 5 aliases, 1 way + 2 entries
        for _ in range(10):
            for line in lines:
                vc.access(line)
        assert vc.stats.miss_rate > 0.9

    def test_buffer_overflow_surfaces_as_eviction(self):
        vc = make(entries=1)
        vc.access(0)
        vc.access(16)                     # 0 -> buffer
        result = vc.access(32)            # 16 -> buffer, 0 overflows
        assert result.victim_block == 0

    def test_dirty_travels_through_buffer(self):
        vc = make(entries=1)
        vc.access(0, is_write=True)
        vc.access(16)                     # dirty 0 -> buffer
        vc.access(0)                      # promoted back, still dirty
        vc.access(16)                     # 0 evicted again, dirty
        result = vc.access(32)            # 0 overflows: must write back
        assert result.victim_block == 0
        assert result.writeback

    def test_contains_covers_buffer(self):
        vc = make()
        vc.access(0)
        vc.access(16)
        assert vc.contains(0)             # in buffer
        assert vc.contains(16)            # in main

    def test_capacity_accounts_buffer(self):
        assert make(n_sets=16, assoc=1, entries=2).n_blocks == 18

    def test_stats_stay_consistent(self):
        vc = make(entries=4)
        n = 0
        for i in range(300):
            vc.access((i * 16) % 128)
            n += 1
        s = vc.stats
        assert s.hits + s.misses == n

    def test_works_as_l2_in_hierarchy(self):
        from repro.cache import CacheHierarchy
        l1 = SetAssociativeCache(4, 2, TraditionalIndexing(4))
        vc = make(n_sets=16, assoc=2, entries=4)
        h = CacheHierarchy([(l1, 32), (vc, 64)])
        out = h.access(0x4000)
        assert out.level == "mem"
        assert h.access(0x4000).level == "l1"
