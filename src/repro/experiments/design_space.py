"""Design-space exploration: indexing scheme x associativity.

Beyond the paper's fixed 4-way/8-way comparison, this sweeps the L2
associativity for each indexing function at constant capacity and
reports misses — quantifying the paper's headline claim from the other
direction: prime hashing at 2 ways beats traditional indexing at 8 on
conflict-heavy workloads, i.e. a better index is worth more than more
ways.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Sequence

from repro.cache import CacheHierarchy, SetAssociativeCache
from repro.cpu import MachineConfig, simulate_hierarchy
from repro.engine import ExperimentContext, ExperimentSpec, register
from repro.experiments.common import RunConfig
from repro.hashing import make_indexing
from repro.reporting import format_table
from repro.workloads import get_workload

#: The registered sweep's workload, indexing functions and L2
#: associativities.
WORKLOAD = "tree"
INDEXINGS = ("traditional", "xor", "pmod", "pdisp")
ASSOCIATIVITIES = (1, 2, 4, 8)


@dataclass(frozen=True)
class DesignPoint:
    """One (indexing, associativity) configuration's results."""

    indexing: str
    assoc: int
    l2_misses: int
    cycles: float


def _hierarchy(indexing_key: str, assoc: int,
               machine: MachineConfig) -> CacheHierarchy:
    if machine.l2_blocks % assoc:
        raise ValueError(f"capacity not divisible by associativity {assoc}")
    n_sets = machine.l2_blocks // assoc
    l1 = SetAssociativeCache(
        machine.l1_sets, machine.l1_assoc,
        make_indexing("traditional", machine.l1_sets), name="L1",
    )
    l2 = SetAssociativeCache(
        n_sets, assoc, make_indexing(indexing_key, n_sets),
        name=f"{indexing_key}/{assoc}w",
    )
    return CacheHierarchy([(l1, machine.l1_block_bytes),
                           (l2, machine.l2_block_bytes)])


def run(workload: str, config: RunConfig = RunConfig(),
        associativities: Sequence[int] = ASSOCIATIVITIES) -> List[DesignPoint]:
    """Sweep the design space for one workload at constant L2 capacity."""
    machine = MachineConfig.paper_default()
    trace = get_workload(workload).trace(scale=config.scale, seed=config.seed)
    points = []
    for key in INDEXINGS:
        for assoc in associativities:
            result = simulate_hierarchy(trace,
                                        _hierarchy(key, assoc, machine),
                                        machine, f"{key}/{assoc}")
            points.append(DesignPoint(key, assoc, result.l2_misses,
                                      result.cycles))
    return points


def render(workload: str, points: List[DesignPoint]) -> str:
    indexings = sorted({p.indexing for p in points})
    associativities = sorted({p.assoc for p in points})
    by_key: Dict[tuple, DesignPoint] = {
        (p.indexing, p.assoc): p for p in points
    }
    rows = []
    for key in indexings:
        rows.append(
            [key] + [by_key[(key, a)].l2_misses for a in associativities]
        )
    return format_table(
        ["indexing \\ ways"] + [str(a) for a in associativities],
        rows,
        title=f"L2 misses by indexing x associativity — {workload} "
              "(constant 512 KB)",
    )


def _build(ctx: ExperimentContext) -> Dict:
    points = run(WORKLOAD, ctx.config)
    return {"workload": WORKLOAD, "points": [asdict(p) for p in points]}


def _render_artifact(artifact: Mapping) -> str:
    data = artifact["data"]
    return render(data["workload"],
                  [DesignPoint(**p) for p in data["points"]])


register(ExperimentSpec(
    name="design_space",
    title="Extension: indexing x associativity design-space sweep",
    build=_build,
    render=_render_artifact,
))
