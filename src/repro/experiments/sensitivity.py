"""Cache-size sensitivity: does prime hashing's advantage survive
scaling the L2?

The paper evaluates one 512 KB geometry.  This extension sweeps the L2
capacity (at fixed 4-way associativity and line size) and measures the
Base-vs-pMod miss gap per workload.  Conflict misses are a property of
the *mapping*, not the capacity, so the non-uniform applications keep
their gap until the cache is large enough to hold the conflicting
footprint outright — the crossover this experiment locates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping

from repro.cache import simulate_misses
from repro.engine import ExperimentContext, ExperimentSpec, register
from repro.experiments.common import RunConfig
from repro.hashing import PrimeModuloIndexing, TraditionalIndexing
from repro.reporting import format_table
from repro.workloads import get_workload

#: L2 capacities swept, in KB (paper's is 512).
DEFAULT_CAPACITIES_KB = (128, 256, 512, 1024, 2048)

#: The registered sweep's workload.
WORKLOAD = "tree"

L2_BLOCK_BYTES = 64
L2_ASSOC = 4


@dataclass(frozen=True)
class SensitivityPoint:
    """Miss counts at one capacity for one workload."""

    workload: str
    capacity_kb: int
    base_misses: int
    pmod_misses: int

    @property
    def miss_ratio(self) -> float:
        """pMod misses normalized to Base (lower = bigger win)."""
        if self.base_misses == 0:
            return 1.0
        return self.pmod_misses / self.base_misses


def run(workload: str, config: RunConfig = RunConfig()) -> List[SensitivityPoint]:
    """Sweep L2 capacity for one workload (miss-only fast path).

    Uses raw L2-block streams (no L1 filtering) — the L1 filter is
    capacity-independent, so it cancels out of the Base/pMod ratio.
    """
    trace = get_workload(workload).trace(scale=config.scale, seed=config.seed)
    blocks = trace.block_addresses(L2_BLOCK_BYTES)
    points = []
    for capacity_kb in DEFAULT_CAPACITIES_KB:
        n_sets = capacity_kb * 1024 // (L2_BLOCK_BYTES * L2_ASSOC)
        if n_sets & (n_sets - 1):
            raise ValueError(f"capacity {capacity_kb} KB gives a non-power-"
                             f"of-two set count {n_sets}")
        base = simulate_misses(TraditionalIndexing(n_sets), blocks, L2_ASSOC,
                               per_set_counters=False)
        pmod = simulate_misses(PrimeModuloIndexing(n_sets), blocks, L2_ASSOC,
                               per_set_counters=False)
        points.append(SensitivityPoint(workload, capacity_kb, base.misses,
                                       pmod.misses))
    return points


def render(points: List[SensitivityPoint]) -> str:
    workload = points[0].workload if points else "?"
    return format_table(
        ["capacity (KB)", "Base misses", "pMod misses", "pMod/Base"],
        [
            [p.capacity_kb, p.base_misses, p.pmod_misses,
             f"{p.miss_ratio:.3f}"]
            for p in points
        ],
        title=f"L2 capacity sensitivity — {workload} (4-way, 64 B lines)",
    )


def _build(ctx: ExperimentContext) -> Dict:
    return {"points": [asdict(p) for p in run(WORKLOAD, ctx.config)]}


def _render_artifact(artifact: Mapping) -> str:
    return render([SensitivityPoint(**p) for p in artifact["data"]["points"]])


register(ExperimentSpec(
    name="sensitivity",
    title="Extension: L2 capacity sensitivity of the pMod gap",
    build=_build,
    render=_render_artifact,
))
