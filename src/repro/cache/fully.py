"""Fully associative cache (the *FA* bars of Figures 11-12).

A fully associative cache of the same capacity isolates conflict misses:
whatever misses remain are compulsory or capacity misses.  True LRU via
an ordered map keeps this O(1) per access.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.setassoc import AccessResult
from repro.cache.stats import CacheStats


class FullyAssociativeCache:
    """LRU fully associative, write-back, write-allocate cache.

    Per-set statistics collapse to a single "set" so the stats object
    stays interface-compatible with the set-associative model.
    """

    name = "FA"

    def __init__(self, n_blocks: int):
        if n_blocks < 1:
            raise ValueError("capacity must be at least one block")
        self.n_blocks = n_blocks
        self._lru: "OrderedDict[int, bool]" = OrderedDict()  # block -> dirty
        self.stats = CacheStats(n_sets=1)

    def access(self, block_address: int, is_write: bool = False) -> AccessResult:
        """Look up ``block_address``, filling on miss."""
        stats = self.stats
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        stats.set_access_counts[0] += 1

        if block_address in self._lru:
            stats.hits += 1
            self._lru.move_to_end(block_address)
            if is_write:
                self._lru[block_address] = True
            return AccessResult(True, 0)

        stats.misses += 1
        stats.set_miss_counts[0] += 1
        victim_block = None
        writeback = False
        if len(self._lru) >= self.n_blocks:
            victim_block, victim_dirty = self._lru.popitem(last=False)
            writeback = victim_dirty
            stats.evictions += 1
            if writeback:
                stats.writebacks += 1
        self._lru[block_address] = is_write
        return AccessResult(False, 0, victim_block, writeback)

    def contains(self, block_address: int) -> bool:
        return block_address in self._lru

    def __repr__(self) -> str:
        return f"FullyAssociativeCache(n_blocks={self.n_blocks})"
