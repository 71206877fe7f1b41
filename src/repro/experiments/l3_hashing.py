"""Does prime indexing still pay at the last-level cache of a modern
three-level hierarchy?

The paper targets a 512 KB L2 behind a 16 KB L1 (2004-era).  A modern
stack inserts a private mid-level cache, which filters short-range
reuse before the LLC sees it.  This experiment builds
L1 (16 KB) → L2 (256 KB, traditional) → L3 (2 MB) and rehashes only the
L3: conflict crowding is a *mapping* property of the miss stream, so
the aligned/page-front patterns that crowd a 2048-set L2 crowd an
8192-set L3 the same way — prime indexing keeps its win one level
down.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Sequence

from repro.cache import CacheHierarchy, SetAssociativeCache
from repro.engine import ExperimentContext, ExperimentSpec, register
from repro.experiments.common import RunConfig
from repro.hashing import make_indexing
from repro.reporting import format_table
from repro.workloads import get_workload

#: Three-level geometry: (KB, ways, line bytes).
L1_GEOMETRY = (16, 2, 32)
L2_GEOMETRY = (256, 8, 64)
L3_GEOMETRY = (2048, 16, 64)


def build_three_level(l3_indexing_key: str) -> CacheHierarchy:
    """L1/L2 traditional, L3 indexed by ``l3_indexing_key``."""
    levels = []
    for (kb, ways, line), key in (
        (L1_GEOMETRY, "traditional"),
        (L2_GEOMETRY, "traditional"),
        (L3_GEOMETRY, l3_indexing_key),
    ):
        n_sets = kb * 1024 // (line * ways)
        cache = SetAssociativeCache(n_sets, ways, make_indexing(key, n_sets),
                                    name=f"{kb}KB/{key}")
        levels.append((cache, line))
    return CacheHierarchy(levels)


@dataclass(frozen=True)
class L3Result:
    """LLC miss counts for one workload and L3 indexing."""

    workload: str
    l3_indexing: str
    l3_misses: int
    l3_accesses: int


def run(workloads: Sequence[str] = ("tree", "mcf", "lu"),
        config: RunConfig = RunConfig(),
        indexings: Sequence[str] = ("traditional", "pmod", "pdisp")) -> List[L3Result]:
    results = []
    for workload in workloads:
        trace = get_workload(workload).trace(scale=config.scale,
                                             seed=config.seed)
        for key in indexings:
            hierarchy = build_three_level(key)
            for address, is_write in zip(trace.addresses, trace.is_write):
                hierarchy.access(int(address), bool(is_write))
            l3 = hierarchy.caches[2]
            results.append(L3Result(workload, key, l3.stats.misses,
                                    l3.stats.accesses))
    return results


def render(results: List[L3Result]) -> str:
    base = {
        r.workload: r.l3_misses for r in results
        if r.l3_indexing == "traditional"
    }
    return format_table(
        ["workload", "L3 indexing", "L3 accesses", "L3 misses",
         "vs traditional"],
        [
            [r.workload, r.l3_indexing, r.l3_accesses, r.l3_misses,
             f"{r.l3_misses / max(1, base[r.workload]):.3f}"]
            for r in results
        ],
        title="Last-level-cache indexing in a 3-level hierarchy "
              "(16KB/256KB/2MB)",
    )


def _build(ctx: ExperimentContext) -> Dict:
    results = run(
        workloads=tuple(ctx.param("workloads", ("tree", "mcf", "lu"))),
        config=ctx.config,
        indexings=tuple(ctx.param("indexings",
                                  ("traditional", "pmod", "pdisp"))),
    )
    return {"results": [asdict(r) for r in results]}


def _render_artifact(artifact: Mapping) -> str:
    return render([L3Result(**r) for r in artifact["data"]["results"]])


register(ExperimentSpec(
    name="l3_hashing",
    title="Extension: prime indexing at the LLC of a 3-level hierarchy",
    build=_build,
    render=_render_artifact,
))


if __name__ == "__main__":
    from repro.experiments.__main__ import main
    main(["l3_hashing", *sys.argv[1:]])
