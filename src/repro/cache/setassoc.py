"""Conventional set-associative cache with a pluggable indexing function.

This is the cache model behind the paper's *Base*, *8-way*, *XOR*,
*pMod* and *pDisp* configurations — same storage, different
:class:`~repro.hashing.base.IndexingFunction`.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.cache.replacement import ReplacementPolicy, make_replacement
from repro.cache.stats import CacheStats
from repro.hashing.base import IndexingFunction


class AccessResult(NamedTuple):
    """Outcome of one cache access: an immutable tuple, built
    positionally on the access path.

    Attributes:
        hit: whether the block was present.
        set_index: the set the block mapped to.
        victim_block: block address evicted to make room (misses only).
        writeback: True when the evicted block was dirty and must be
            written to the next level.
    """

    hit: bool
    set_index: int
    victim_block: Optional[int] = None
    writeback: bool = False


class SetAssociativeCache:
    """W-way set-associative, write-back, write-allocate cache.

    Blocks are identified by their full block address (the indexing
    function need not be invertible, so the stored "tag" is the whole
    block address).

    Args:
        n_sets_physical: power-of-two physical set count (storage).
        assoc: associativity W.
        indexing: maps block addresses to set indices; its ``n_sets``
            may be below ``n_sets_physical`` (prime modulo), in which
            case the residual sets sit idle — the fragmentation of
            Table 1.
        replacement: policy key (default ``"lru"``, as in the paper).
        name: label used in reports.
    """

    def __init__(
        self,
        n_sets_physical: int,
        assoc: int,
        indexing: IndexingFunction,
        replacement: str = "lru",
        name: Optional[str] = None,
    ):
        if indexing.n_sets_physical != n_sets_physical:
            raise ValueError(
                f"indexing is built for {indexing.n_sets_physical} physical "
                f"sets, cache has {n_sets_physical}"
            )
        if assoc < 1:
            raise ValueError("associativity must be positive")
        self.n_sets_physical = n_sets_physical
        self.assoc = assoc
        self.indexing = indexing
        self.name = name or indexing.name
        self._blocks: List[List[Optional[int]]] = [
            [None] * assoc for _ in range(indexing.n_sets)
        ]
        self._dirty: List[List[bool]] = [
            [False] * assoc for _ in range(indexing.n_sets)
        ]
        self.policy: ReplacementPolicy = make_replacement(
            replacement, indexing.n_sets, assoc
        )
        self.stats = CacheStats(indexing.n_sets)

    @property
    def n_blocks(self) -> int:
        """Physical block frames (includes fragmented sets)."""
        return self.n_sets_physical * self.assoc

    def access(self, block_address: int, is_write: bool = False) -> AccessResult:
        """Look up ``block_address``, filling on miss. Returns the outcome."""
        set_index = self.indexing.index(block_address)
        stats = self.stats
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        stats.set_access_counts[set_index] += 1

        ways = self._blocks[set_index]
        if block_address in ways:
            way = ways.index(block_address)
            stats.hits += 1
            self.policy.on_hit(set_index, way)
            if is_write:
                self._dirty[set_index][way] = True
            return AccessResult(True, set_index)

        stats.misses += 1
        stats.set_miss_counts[set_index] += 1

        # Prefer an invalid frame; otherwise ask the policy for a victim.
        dirty = self._dirty[set_index]
        if None in ways:
            way = ways.index(None)
            victim_block = None
            writeback = False
        else:
            way = self.policy.victim(set_index)
            victim_block = ways[way]
            writeback = dirty[way]
            stats.evictions += 1
            if writeback:
                stats.writebacks += 1
        ways[way] = block_address
        dirty[way] = is_write
        self.policy.on_fill(set_index, way)
        return AccessResult(False, set_index, victim_block, writeback)

    def contains(self, block_address: int) -> bool:
        """True when the block is resident (no state change)."""
        set_index = self.indexing.index(block_address)
        return block_address in self._blocks[set_index]

    def invalidate(self, block_address: int) -> bool:
        """Drop a block if resident; returns whether it was dirty."""
        set_index = self.indexing.index(block_address)
        ways = self._blocks[set_index]
        for way, resident in enumerate(ways):
            if resident == block_address:
                was_dirty = self._dirty[set_index][way]
                ways[way] = None
                self._dirty[set_index][way] = False
                return was_dirty
        return False

    def resident_blocks(self) -> List[int]:
        """All resident block addresses (for tests and debugging)."""
        return [b for ways in self._blocks for b in ways if b is not None]

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache(name={self.name!r}, sets={self.n_sets_physical}, "
            f"assoc={self.assoc}, indexing={self.indexing.name})"
        )
