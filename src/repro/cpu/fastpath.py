"""One flat loop for the paper's LRU hierarchies.

:meth:`~repro.cpu.simulator.Simulator.run` pays four to five Python
calls per simulated access (``CacheHierarchy.access`` and its walk over
the levels, two ``SetAssociativeCache.access`` calls,
``DramModel.service``); that
plumbing, not the indexing hash, is where its time goes.  When both
cache levels are LRU :class:`~repro.cache.setassoc.SetAssociativeCache`
objects (the paper's Base, 8-way, XOR, pMod and pDisp configurations),
:func:`run_flat` replays the same model in a single loop over plain
lists and ints and returns an :class:`ExecutionResult` equal field for
field to the reference's:

* Each cache is a list of per-set block lists, least recently used
  first.  That matches the reference's way arrays plus
  :class:`~repro.cache.replacement.LRUPolicy` order because nothing
  invalidates a frame here: every set fills all its ways before its
  first eviction, and from then on the policy's victim is the least
  recently touched block.
* The L1 keeps its dirty blocks in a dict mapping each to its L2 set.
  The L2 keeps no dirty state at all: an L2 writeback only ever becomes
  a posted DRAM write, which neither stalls the requester nor moves an
  open row, so it cannot change any result field.
* Both levels' set indices come from ``index_array``, :data:`BLOCK`
  accesses at a time; lists for a whole trace would add over 100 bytes
  of peak memory per access.
* The DRAM read path of :meth:`~repro.memory.dram.DramModel.service` is
  inlined with its float operations in the reference's order, so the
  cycle counts match bit for bit, not just to a tolerance.

:func:`~repro.cpu.simulator.simulate_hierarchy` (and so
``simulate_scheme``) takes this path whenever :func:`supports` accepts
the hierarchy it is given; ``Simulator.run`` stays the reference and
the path for every other hierarchy.
"""

from __future__ import annotations

import numpy as np

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.replacement import LRUPolicy
from repro.cache.setassoc import SetAssociativeCache
from repro.cpu.config import MachineConfig
from repro.cpu.simulator import ExecutionResult
from repro.trace.records import Trace

#: Accesses whose addresses and set indices are turned into Python
#: lists at a time.
BLOCK = 16384


def supports(hierarchy) -> bool:
    """Whether :func:`run_flat` models ``hierarchy`` exactly: a
    two-level :class:`CacheHierarchy` whose levels are both LRU
    :class:`SetAssociativeCache` objects."""
    return (type(hierarchy) is CacheHierarchy
            and len(hierarchy.caches) == 2
            and all(type(cache) is SetAssociativeCache
                    and type(cache.policy) is LRUPolicy
                    for cache in hierarchy.caches))


def run_flat(trace: Trace, hierarchy: CacheHierarchy, config: MachineConfig,
             scheme: str, warmup_fraction: float) -> ExecutionResult:
    """What ``Simulator(hierarchy, DramModel(config.dram_config()),
    config, scheme).run(trace, warmup_fraction)`` returns, for an empty
    ``hierarchy`` that :func:`supports` accepts.

    Only the shape of ``hierarchy`` is read (set counts, associativity,
    indexing functions, block sizes); its contents are neither used nor
    changed.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    meta = trace.meta
    n = len(trace)
    start = int(n * warmup_fraction)

    l1, l2 = hierarchy.l1, hierarchy.l2
    l1_index, l2_index = l1.indexing.index_array, l2.indexing.index_array
    l1_assoc, l2_assoc = l1.assoc, l2.assoc
    l1_sets = [[] for _ in range(l1.indexing.n_sets)]
    l2_sets = [[] for _ in range(l2.indexing.n_sets)]
    l1_dirty = {}  # dirty L1 block -> the L2 set of its L2 block
    l1_bits, l2_bits = hierarchy.offset_bits
    l1_offset, l2_offset = np.uint64(l1_bits), np.uint64(l2_bits)
    shift = l2_bits - l1_bits

    dram = config.dram_config()
    channels, banks = dram.channels, dram.banks_per_channel
    row_blocks, bus = dram.row_blocks, dram.bus_cycles_per_block
    hit_cycles, miss_cycles = dram.row_hit_cycles, dram.row_miss_cycles

    step = meta.instructions_per_access / config.issue_width
    l2_exposed = config.l2_hit_cycles * config.l2_exposed_fraction
    step_l2 = step + l2_exposed
    mlp = min(meta.mlp, float(config.pending_loads))

    # The warm-up is a first segment through the same loop.  Each
    # segment starts from a fresh clock, fresh counters and a fresh
    # DRAM; only the cache contents carry over.  That is the state the
    # reference's warm-up leaves: it never reaches the DRAM and ends by
    # zeroing the statistics.
    for lo_segment, hi_segment in ((0, start), (start, n)):
        now = memory_stall = 0.0
        l1_hits = l1_writebacks = l2_misses = row_hits = row_misses = 0
        open_row = [-1] * (channels * banks)
        free_at = [0.0] * channels
        for lo in range(lo_segment, hi_segment, BLOCK):
            hi = min(lo + BLOCK, hi_segment)
            addresses = trace.addresses[lo:hi]
            b1s = addresses >> l1_offset
            b2s = addresses >> l2_offset
            for b1, s1, b2, s2, write in zip(
                    b1s.tolist(), l1_index(b1s).tolist(), b2s.tolist(),
                    l2_index(b2s).tolist(), trace.is_write[lo:hi].tolist()):
                ways = l1_sets[s1]
                if b1 in ways:
                    l1_hits += 1
                    if ways[-1] != b1:
                        ways.remove(b1)
                        ways.append(b1)
                    if write:
                        l1_dirty[b1] = s2
                    now += step
                    continue

                # L1 miss.  A dirty victim is written into the L2 first,
                # allocating there on a miss; that allocation's DRAM read
                # is charged only if the demand access misses the L2 too.
                fill = -1
                if len(ways) == l1_assoc:
                    victim = ways.pop(0)
                    victim_set = l1_dirty.pop(victim, None)
                    if victim_set is not None:
                        l1_writebacks += 1
                        victim = victim >> shift
                        lru = l2_sets[victim_set]
                        if victim in lru:
                            if lru[-1] != victim:
                                lru.remove(victim)
                                lru.append(victim)
                        else:
                            l2_misses += 1
                            if len(lru) == l2_assoc:
                                del lru[0]
                            lru.append(victim)
                            fill = victim
                ways.append(b1)
                if write:
                    l1_dirty[b1] = s2

                lru = l2_sets[s2]
                if b2 in lru:
                    if lru[-1] != b2:
                        lru.remove(b2)
                        lru.append(b2)
                    memory_stall += l2_exposed
                    now += step_l2
                    continue
                l2_misses += 1
                if len(lru) == l2_assoc:
                    del lru[0]
                lru.append(b2)

                stall = 0.0
                for block in ((fill, b2) if fill >= 0 else (b2,)):
                    channel = block % channels
                    interleaved = block // channels
                    bank = channel * banks + interleaved % banks
                    row = interleaved // row_blocks
                    requested = now + stall
                    begin = free_at[channel]
                    if begin < requested:
                        begin = requested
                    if open_row[bank] == row:
                        row_hits += 1
                        stall += begin - requested + hit_cycles
                    else:
                        row_misses += 1
                        open_row[bank] = row
                        stall += begin - requested + miss_cycles
                    free_at[channel] = begin + bus
                stall /= mlp
                memory_stall += stall
                now += step + stall

    measured = n - start
    l1_misses = measured - l1_hits
    return ExecutionResult(
        workload=trace.name,
        scheme=scheme,
        busy=measured * meta.instructions_per_access / config.issue_width,
        other_stalls=measured * (meta.mispredicts_per_kaccess / 1000.0)
        * config.branch_penalty,
        memory_stall=memory_stall,
        l1_misses=l1_misses,
        l2_accesses=l1_misses + l1_writebacks,
        l2_misses=l2_misses,
        dram_row_hits=row_hits,
        dram_row_misses=row_misses,
    )
