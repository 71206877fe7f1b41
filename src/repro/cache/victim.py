"""Victim cache (Jouppi 1990) — the classic conflict-miss comparator.

A small fully associative buffer holds the most recent evictions from a
direct-mapped or set-associative cache; a main-cache miss that hits the
buffer swaps the two lines instead of going to memory.  Victim caches
are the traditional *hardware* answer to conflict misses, so they are
the natural baseline to contrast with the paper's *indexing* answer:
a handful of buffer entries absorbs a handful of conflicting lines,
while prime hashing redistributes thousands (the ablation bench makes
this quantitative on tree).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.cache.setassoc import AccessResult, SetAssociativeCache
from repro.cache.stats import CacheStats


class VictimCache:
    """A set-associative cache backed by a small FA victim buffer.

    Exposes the same ``access`` protocol as the other caches, so it
    drops into :class:`~repro.cache.hierarchy.CacheHierarchy` as an L2.
    A victim-buffer hit counts as a cache hit (the swap's extra cycle
    is far below the memory latency this model resolves).
    """

    def __init__(self, main: SetAssociativeCache, n_victim_entries: int = 16):
        if n_victim_entries < 1:
            raise ValueError("victim buffer needs at least one entry")
        self.main = main
        self.n_victim_entries = n_victim_entries
        self._buffer: "OrderedDict[int, bool]" = OrderedDict()  # block -> dirty
        self.name = f"{main.name}+victim{n_victim_entries}"
        self.victim_hits = 0

    @property
    def stats(self) -> CacheStats:
        """Main-array statistics; misses are adjusted via access()."""
        return self.main.stats

    @property
    def n_blocks(self) -> int:
        return self.main.n_blocks + self.n_victim_entries

    def _stash(self, block: int, dirty: bool) -> Tuple[Optional[int], bool]:
        """Push an evicted main-cache line into the buffer; returns the
        buffer's own overflow (if any) as the outward eviction."""
        overflow_block = None
        overflow_dirty = False
        if len(self._buffer) >= self.n_victim_entries:
            overflow_block, overflow_dirty = self._buffer.popitem(last=False)
        self._buffer[block] = dirty
        return overflow_block, overflow_dirty

    def access(self, block_address: int, is_write: bool = False) -> AccessResult:
        result = self.main.access(block_address, is_write)
        if result.hit:
            return result

        stats = self.main.stats
        buffered_dirty = self._buffer.pop(block_address, None)
        if buffered_dirty is not None:
            # Victim hit: the fill already happened inside main.access;
            # reclassify the miss as a hit and keep the line's dirt.
            self.victim_hits += 1
            stats.misses -= 1
            stats.hits += 1
            stats.set_miss_counts[result.set_index] -= 1
            if buffered_dirty:
                # The promoted line carries its dirt back into the array.
                ways = self.main._blocks[result.set_index]
                way = ways.index(block_address)
                self.main._dirty[result.set_index][way] = True
            if result.victim_block is not None:
                overflow, overflow_dirty = self._stash(
                    result.victim_block, result.writeback
                )
                if overflow is not None:
                    return AccessResult(True, result.set_index, overflow,
                                        overflow_dirty)
            return AccessResult(True, result.set_index)

        # True miss: stash the main eviction; the buffer overflow is
        # what leaves the cache for the next level.
        if result.victim_block is None:
            return result
        overflow, overflow_dirty = self._stash(result.victim_block,
                                               result.writeback)
        return AccessResult(False, result.set_index, overflow, overflow_dirty)

    def contains(self, block_address: int) -> bool:
        return self.main.contains(block_address) or \
            block_address in self._buffer

    def __repr__(self) -> str:
        return (f"VictimCache(main={self.main!r}, "
                f"entries={self.n_victim_entries})")
