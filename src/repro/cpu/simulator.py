"""Trace-driven timing simulator.

Approximates the paper's 6-issue dynamic superscalar with an analytic
per-access model.  The figures the paper reports are *normalized
execution times*, broken into Busy / Other Stalls / Memory Stall — the
same three components this simulator produces:

* **busy** — dynamic instructions over the issue width.
* **other stalls** — branch-misprediction penalties (the dominant
  non-memory stall for the evaluated memory-bound codes).
* **memory stall** — exposed cache/DRAM latency.  L1 hits are fully
  hidden by the out-of-order window.  L2 hits expose a configurable
  fraction of their round trip.  DRAM accesses pay the row-hit/row-miss
  latency plus channel queueing, divided by the workload's achievable
  memory-level parallelism (clamped by the machine's pending-load
  limit).

Absolute cycle counts are not the point; ratios between indexing
schemes are driven by L2 miss counts and DRAM row behavior, which the
substrate models directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.config import MachineConfig, build_hierarchy
from repro.memory import DramModel
from repro.trace.records import Trace

#: Accesses whose addresses and write flags :func:`trace_accesses`
#: turns into Python values at a time; larger blocks raise peak memory.
TRACE_BLOCK = 1024


@dataclass
class ExecutionResult:
    """Cycle breakdown of one simulated run."""

    workload: str
    scheme: str
    busy: float
    other_stalls: float
    memory_stall: float
    l1_misses: int
    l2_accesses: int
    l2_misses: int
    dram_row_hits: int
    dram_row_misses: int

    @property
    def cycles(self) -> float:
        return self.busy + self.other_stalls + self.memory_stall

    def speedup_over(self, baseline: "ExecutionResult") -> float:
        """Speedup of *this* configuration relative to ``baseline``."""
        if self.cycles == 0:
            raise ZeroDivisionError("run produced zero cycles")
        return baseline.cycles / self.cycles

    def normalized_to(self, baseline: "ExecutionResult") -> "NormalizedTime":
        """Per-component execution time normalized to ``baseline`` (the
        stacked bars of Figures 7-10)."""
        total = baseline.cycles
        return NormalizedTime(
            workload=self.workload,
            scheme=self.scheme,
            busy=self.busy / total,
            other_stalls=self.other_stalls / total,
            memory_stall=self.memory_stall / total,
        )


@dataclass(frozen=True)
class NormalizedTime:
    """One stacked bar of the paper's execution-time figures."""

    workload: str
    scheme: str
    busy: float
    other_stalls: float
    memory_stall: float

    @property
    def total(self) -> float:
        return self.busy + self.other_stalls + self.memory_stall


class Simulator:
    """Runs traces through a two-level hierarchy + DRAM and accumulates
    timing."""

    def __init__(self, hierarchy: CacheHierarchy, dram: DramModel,
                 config: MachineConfig = None, scheme: str = ""):
        if len(hierarchy.caches) != 2:
            raise ValueError("Simulator times an L1+L2 hierarchy, not "
                             f"{len(hierarchy.caches)} levels")
        self.hierarchy = hierarchy
        self.dram = dram
        self.config = config or MachineConfig.paper_default()
        self.scheme = scheme

    def run(self, trace: Trace, warmup_fraction: float = 0.0) -> ExecutionResult:
        """Simulate the full trace; returns the cycle breakdown.

        ``warmup_fraction`` runs that leading share of the trace to
        populate the caches, then resets every statistic before the
        measured region — the standard way to exclude cold misses.

        Every access, warm-up included, is one ``hierarchy.access``
        call and every DRAM transfer one ``dram.service`` call.  Both
        are looked up when ``run`` starts, so a wrapper set on the
        instance before then sees each of them; the benchmark suite
        times and traces the layers that way.  :func:`simulate_hierarchy`
        runs the LRU hierarchies through :mod:`repro.cpu.fastpath`
        instead, which matches this loop exactly.

        DRAM reads are charged only for accesses that miss the L2.  A
        dirty L1 victim that misses the L2 is write-allocated there, and
        the outcome lists that fill in ``memory_reads``; when the demand
        access itself hits the L2, the fill is never serviced, so it
        costs no cycles and no row hit or miss.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        cfg = self.config
        meta = trace.meta
        hierarchy = self.hierarchy
        dram = self.dram
        access = hierarchy.access
        service = dram.service

        start = int(len(trace) * warmup_fraction)
        if start:
            for address, write in trace_accesses(trace, 0, start):
                access(address, write)
            hierarchy.l1.stats.reset()
            hierarchy.l2.stats.reset()
            dram.stats = type(dram.stats)()

        n = len(trace) - start
        busy = n * meta.instructions_per_access / cfg.issue_width
        other = n * (meta.mispredicts_per_kaccess / 1000.0) * cfg.branch_penalty

        mlp = min(meta.mlp, float(cfg.pending_loads))
        l2_exposed = cfg.l2_hit_cycles * cfg.l2_exposed_fraction
        step = meta.instructions_per_access / cfg.issue_width
        memory_stall = 0.0
        now = 0.0
        for address, write in trace_accesses(trace, start, len(trace)):
            outcome = access(address, write)
            level = outcome.level
            if level == "l1":
                stall = 0.0
            elif level == "l2":
                stall = l2_exposed
            else:
                stall = 0.0
                for block in outcome.memory_reads:
                    stall += service(now + stall, block, False)
                # Writebacks leave the requester's critical path but
                # still occupy the channel (posted writes).
                for block in outcome.memory_writes:
                    service(now + stall, block, True)
                stall /= mlp
            memory_stall += stall
            now += step + stall

        l1 = hierarchy.l1.stats
        l2 = hierarchy.l2.stats
        return ExecutionResult(
            workload=trace.name,
            scheme=self.scheme,
            busy=busy,
            other_stalls=other,
            memory_stall=memory_stall,
            l1_misses=l1.misses,
            l2_accesses=l2.accesses,
            l2_misses=l2.misses,
            dram_row_hits=dram.stats.row_hits,
            dram_row_misses=dram.stats.row_misses,
        )


def trace_accesses(trace: Trace, lo: int, hi: int):
    """``(address, is_write)`` of accesses ``lo`` to ``hi`` as Python
    values, converted :data:`TRACE_BLOCK` accesses at a time; every loop
    that feeds a trace to a hierarchy one access at a time reads it
    through here."""
    addresses, writes = trace.addresses[lo:hi], trace.is_write[lo:hi]
    return chain.from_iterable(
        zip(addresses[b:b + TRACE_BLOCK].tolist(),
            writes[b:b + TRACE_BLOCK].tolist())
        for b in range(0, hi - lo, TRACE_BLOCK))


def simulate_hierarchy(trace: Trace, hierarchy: CacheHierarchy,
                       config: MachineConfig, scheme: str = "",
                       warmup_fraction: float = 0.0) -> ExecutionResult:
    """Run ``trace`` on a freshly built two-level ``hierarchy``.

    When both cache levels are LRU set-associative (base, 8way, xor,
    pmod, pdisp, and hand-built hierarchies of that shape) the run
    takes :func:`repro.cpu.fastpath.run_flat`, which returns exactly
    what :meth:`Simulator.run` would, several times faster, and leaves
    ``hierarchy`` untouched, so read counts from the result; skewed and
    fully associative L2s take :meth:`Simulator.run`.
    """
    # fastpath builds ExecutionResults, so it imports this module.
    from repro.cpu import fastpath

    if fastpath.supports(hierarchy):
        return fastpath.run_flat(trace, hierarchy, config, scheme,
                                 warmup_fraction)
    dram = DramModel(config.dram_config())
    return Simulator(hierarchy, dram, config, scheme=scheme).run(
        trace, warmup_fraction=warmup_fraction
    )


def simulate_scheme(trace: Trace, scheme: str,
                    config: MachineConfig = None,
                    skew_replacement: str = "enru",
                    warmup_fraction: float = 0.0) -> ExecutionResult:
    """Build a fresh hierarchy for ``scheme`` and run ``trace`` on it
    through :func:`simulate_hierarchy`."""
    config = config or MachineConfig.paper_default()
    return simulate_hierarchy(
        trace, build_hierarchy(scheme, config, skew_replacement), config,
        scheme, warmup_fraction)
