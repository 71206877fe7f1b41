"""Two-level write-back cache hierarchy (paper Table 3).

L1 always uses traditional indexing (the paper only rehashes the L2 —
Section 3.3 explains why XOR-style functions are a bad idea for L1).
The L2 can be any object with the cache ``access(block, is_write)``
protocol: set-associative with any indexing function, skewed
associative, or fully associative.

Both levels are write-back/write-allocate.  A dirty L1 eviction is
written into L2 (possibly allocating there); a dirty L2 eviction goes
to memory.  The outcome records every DRAM-level transfer, including
the fill of such a write-allocate.  The timing model decides which ones
it charges: :meth:`repro.cpu.simulator.Simulator.run` services them
only when the demand access misses the L2, so a write-allocate fill
beside an L2 hit costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.cache.setassoc import SetAssociativeCache
from repro.mathutil import log2_exact


@dataclass
class HierarchyOutcome:
    """What one CPU access did to the hierarchy.

    Attributes:
        level: where the data was found — ``"l1"``, ``"l2"`` or ``"mem"``.
        memory_reads: L2-block addresses fetched from DRAM.
        memory_writes: L2-block addresses written back to DRAM.
    """

    level: str
    memory_reads: List[int] = field(default_factory=list)
    memory_writes: List[int] = field(default_factory=list)

    @property
    def touched_memory(self) -> bool:
        return bool(self.memory_reads or self.memory_writes)


class CacheHierarchy:
    """L1 + L2 write-back hierarchy driven by byte addresses."""

    def __init__(self, l1: SetAssociativeCache, l2, l1_block_bytes: int,
                 l2_block_bytes: int):
        if l2_block_bytes < l1_block_bytes:
            raise ValueError("L2 lines must be at least as large as L1 lines")
        self.l1 = l1
        self.l2 = l2
        self.l1_offset_bits = log2_exact(l1_block_bytes)
        self.l2_offset_bits = log2_exact(l2_block_bytes)
        self._l1_to_l2_shift = self.l2_offset_bits - self.l1_offset_bits

    def _l2_write(self, l2_block: int, outcome: HierarchyOutcome) -> None:
        """Write a dirty L1 victim into L2 (write-allocate)."""
        result = self.l2.access(l2_block, is_write=True)
        if not result.hit:
            outcome.memory_reads.append(l2_block)  # allocate fill
            if result.writeback:
                outcome.memory_writes.append(result.victim_block)

    def access(self, byte_address: int, is_write: bool = False) -> HierarchyOutcome:
        """One CPU load/store; returns where it was serviced."""
        if byte_address < 0:
            raise ValueError("address must be non-negative")
        l1_block = byte_address >> self.l1_offset_bits
        l1_result = self.l1.access(l1_block, is_write)
        if l1_result.hit:
            return HierarchyOutcome(level="l1")

        outcome = HierarchyOutcome(level="l2")
        if l1_result.writeback:
            self._l2_write(l1_result.victim_block >> self._l1_to_l2_shift, outcome)

        l2_block = byte_address >> self.l2_offset_bits
        l2_result = self.l2.access(l2_block, is_write=False)
        if not l2_result.hit:
            outcome.level = "mem"
            outcome.memory_reads.append(l2_block)
            if l2_result.writeback:
                outcome.memory_writes.append(l2_result.victim_block)
        return outcome

    def __repr__(self) -> str:
        return f"CacheHierarchy(l1={self.l1!r}, l2={self.l2!r})"
