"""Which conflict patterns survive the OS page allocator?

The paper's L2 is physically indexed, so its conflict misses are a
property of *physical* addresses.  This experiment translates workload
traces through three page-allocation policies and re-measures the
Base-vs-pMod miss gap:

* tree's crowding is **offset-driven** — the crowded index bits sit in
  the within-page block offset — so essentially the full gap survives
  *every* policy, including uniformly random allocation;
* bt's column conflicts are **pitch-driven** — they exist only when
  physical pages preserve the virtual layout's page-color bits.  Page
  coloring keeps them (and pMod's win with them); first-touch
  sequential allocation dissolves them *for Base too* (the walk
  first-touches the aliasing pages consecutively, so they land on
  consecutive — differently indexed — physical pages), as does random
  allocation.

The asymmetry is the experiment's point: the paper's headline wins do
not all rest on the same assumption about the OS, and the identity
mapping the raw traces use corresponds to the color-preserving case.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Sequence

from repro.cache import simulate_misses
from repro.engine import ExperimentContext, ExperimentSpec, register
from repro.experiments.common import RunConfig
from repro.hashing import PrimeModuloIndexing, TraditionalIndexing
from repro.reporting import format_table
from repro.vm import (
    ColoringAllocator,
    RandomAllocator,
    SequentialAllocator,
    VirtualMemory,
)
from repro.workloads import get_workload

L2_SETS = 2048
L2_ASSOC = 4
L2_BLOCK = 64
#: Physical memory modeled: 1M pages = 4 GB.
PHYSICAL_PAGES = 1 << 20
#: Page-color bits for the coloring policy: page-number bits that reach
#: the 2048-set L2 index (11 index bits - 6 in-page block bits = 5).
L2_COLOR_BITS = 5

POLICIES = ("sequential", "random", "colored")

#: Workloads of the registered run: offset-driven (tree) and
#: pitch-driven (bt) conflicts.
WORKLOADS = ("tree", "bt")


def make_allocator(policy: str, seed: int):
    if policy == "sequential":
        return SequentialAllocator(PHYSICAL_PAGES)
    if policy == "random":
        return RandomAllocator(PHYSICAL_PAGES, seed=seed)
    if policy == "colored":
        return ColoringAllocator(PHYSICAL_PAGES, color_bits=L2_COLOR_BITS)
    raise KeyError(f"unknown policy {policy!r}; known: {', '.join(POLICIES)}")


@dataclass(frozen=True)
class AllocationResult:
    """Miss gap under one allocation policy for one workload."""

    workload: str
    policy: str
    base_misses: int
    pmod_misses: int

    @property
    def miss_ratio(self) -> float:
        if self.base_misses == 0:
            return 1.0
        return self.pmod_misses / self.base_misses


def run(workloads: Sequence[str] = WORKLOADS,
        config: RunConfig = RunConfig()) -> List[AllocationResult]:
    """Measure the Base/pMod miss gap under each allocation policy."""
    results = []
    for workload in workloads:
        virtual = get_workload(workload).trace(scale=config.scale,
                                               seed=config.seed)
        for policy in POLICIES:
            vm = VirtualMemory(make_allocator(policy, config.seed))
            physical = vm.translate_trace(virtual)
            blocks = physical.block_addresses(L2_BLOCK)
            base = simulate_misses(TraditionalIndexing(L2_SETS), blocks,
                                   L2_ASSOC, per_set_counters=False)
            pmod = simulate_misses(PrimeModuloIndexing(L2_SETS), blocks,
                                   L2_ASSOC, per_set_counters=False)
            results.append(AllocationResult(workload, policy, base.misses,
                                            pmod.misses))
    return results


def render(results: List[AllocationResult]) -> str:
    return format_table(
        ["workload", "allocation", "Base misses", "pMod misses",
         "pMod/Base"],
        [
            [r.workload, r.policy, r.base_misses, r.pmod_misses,
             f"{r.miss_ratio:.3f}"]
            for r in results
        ],
        title="Base vs pMod L2 misses under OS page-allocation policies",
    )


def _build(ctx: ExperimentContext) -> Dict:
    return {"results": [asdict(r) for r in run(config=ctx.config)]}


def _render_artifact(artifact: Mapping) -> str:
    return render([AllocationResult(**r)
                   for r in artifact["data"]["results"]])


register(ExperimentSpec(
    name="page_allocation",
    title="Extension: conflict survival under OS page allocation",
    build=_build,
    render=_render_artifact,
))
