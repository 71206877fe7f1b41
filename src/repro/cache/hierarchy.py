"""Write-back cache hierarchy of any depth.

The paper's machine (Table 3) is two levels.  Its L1 always uses
traditional indexing (the paper only rehashes the L2 — Section 3.3
explains why XOR-style functions are a bad idea for L1).  The L2 can be
any object with the cache ``access(block, is_write)`` protocol:
set-associative with any indexing function, skewed associative, fully
associative, or a victim cache.  The ``l3_hashing`` experiment chains a
third level to ask the same question at a modern last-level cache.

Every level is write-back/write-allocate:

* a hit at a level services the access;
* a miss allocates there and goes on to the next level down; a miss at
  the last level is a memory read;
* a dirty victim is written into the next level down, write-allocating
  there like any other miss; a dirty victim of the last level is a
  memory write.

The outcome records every DRAM-level transfer, including the fill of
such a write-allocate.  The timing model decides which ones it charges:
:meth:`repro.cpu.simulator.Simulator.run` services them only when the
demand access misses the L2, so a write-allocate fill beside an L2 hit
costs nothing.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.mathutil import log2_exact


class HierarchyOutcome:
    """What one CPU access did to the hierarchy: a slotted record, one
    per access.

    Attributes:
        level: where the data was found — ``"l1"``, ``"l2"``, … or
            ``"mem"``.
        memory_reads: last-level block addresses fetched from DRAM.
        memory_writes: last-level block addresses written back to DRAM.
    """

    __slots__ = ("level", "memory_reads", "memory_writes")

    def __init__(self, level: str):
        self.level = level
        self.memory_reads: List[int] = []
        self.memory_writes: List[int] = []

    @property
    def touched_memory(self) -> bool:
        return bool(self.memory_reads or self.memory_writes)

    def __repr__(self) -> str:
        return (f"HierarchyOutcome(level={self.level!r}, "
                f"memory_reads={self.memory_reads!r}, "
                f"memory_writes={self.memory_writes!r})")


class CacheHierarchy:
    """A chain of caches driven by byte addresses, L1 first."""

    def __init__(self, levels: Sequence[Tuple[object, int]]):
        """``levels`` is a list of ``(cache, block_bytes)``, L1 first;
        line sizes may not shrink toward memory."""
        if not levels:
            raise ValueError("need at least one cache level")
        self.caches = [cache for cache, _ in levels]
        self.offset_bits = [log2_exact(block) for _, block in levels]
        if self.offset_bits != sorted(self.offset_bits):
            raise ValueError("line sizes must be non-decreasing toward memory")
        # Per level: (cache, offset bits, name, the levels below it), so
        # a write-back walks on from its own level without slicing.
        self._levels = []
        for n in range(len(self.caches), 0, -1):
            level = (self.caches[n - 1], self.offset_bits[n - 1], f"l{n}",
                     self._levels)
            self._levels = [level] + self._levels

    @property
    def l1(self):
        return self.caches[0]

    @property
    def l2(self):
        return self.caches[1]

    def access(self, byte_address: int, is_write: bool = False) -> HierarchyOutcome:
        """One CPU load/store; returns where it was serviced plus the
        DRAM traffic it caused."""
        if byte_address < 0:
            raise ValueError("address must be non-negative")
        outcome = HierarchyOutcome("mem")
        outcome.level = self._walk(self._levels, byte_address, is_write,
                                   outcome)
        return outcome

    def _walk(self, levels, byte_address: int, is_write: bool,
              outcome: HierarchyOutcome) -> str:
        """Access ``byte_address`` at each of ``levels`` in turn until one
        hits; returns that level's name, or ``"mem"``.

        A dirty victim is written into the levels below its own by the
        same walk, or into DRAM below the last level.
        """
        for cache, offset, name, below in levels:
            result = cache.access(byte_address >> offset, is_write)
            if result.writeback:
                if below:
                    self._walk(below, result.victim_block << offset, True,
                               outcome)
                else:
                    outcome.memory_writes.append(result.victim_block)
            if result.hit:
                return name
            is_write = False
        # Every level missed; ``offset`` is the last level's.
        outcome.memory_reads.append(byte_address >> offset)
        return "mem"

    def __repr__(self) -> str:
        names = " -> ".join(getattr(cache, "name", type(cache).__name__)
                            for cache in self.caches)
        return f"CacheHierarchy({names})"
