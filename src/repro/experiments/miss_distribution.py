"""Figure 13: distribution of L2 misses across the cache sets for
``tree``, under Base and under pMod.

Under traditional indexing the vast majority of tree's misses pile
into a small fraction of the sets (the arena-allocation alignment);
prime modulo hashing flattens the distribution and with it removes the
misses themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

import numpy as np

from repro.cpu import MachineConfig, build_hierarchy
from repro.cpu.simulator import trace_accesses
from repro.engine import (
    ExperimentContext,
    ExperimentSpec,
    machine_fingerprint,
    register,
)
from repro.experiments.common import RunConfig
from repro.reporting import format_table, sparkline_series
from repro.trace.records import Trace
from repro.workloads import get_workload

#: Figure 13's application and the two schemes it compares.
WORKLOAD = "tree"
SCHEMES = ("base", "pmod")


@dataclass
class MissDistribution:
    """Per-set L2 miss counts for one scheme."""

    scheme: str
    set_misses: np.ndarray

    @property
    def total(self) -> int:
        return int(self.set_misses.sum())

    def top_fraction_share(self, fraction: float = 0.1) -> float:
        """Share of all misses carried by the busiest ``fraction`` of sets."""
        if self.total == 0:
            return 0.0
        ordered = np.sort(self.set_misses)[::-1]
        top = max(1, int(len(ordered) * fraction))
        return float(ordered[:top].sum() / self.total)

    def coefficient_of_variation(self) -> float:
        mean = self.set_misses.mean()
        return float(self.set_misses.std() / mean) if mean else 0.0


def _measure(trace: Trace, schemes: Sequence[str],
             machine: MachineConfig = None) -> Dict[str, MissDistribution]:
    """Drive ``trace`` through each scheme's hierarchy on ``machine``
    (default: paper Table 3), keeping the per-set L2 miss counters."""
    results = {}
    for scheme in schemes:
        hierarchy = build_hierarchy(scheme, machine)
        access = hierarchy.access
        for address, is_write in trace_accesses(trace, 0, len(trace)):
            access(address, is_write)
        results[scheme] = MissDistribution(scheme,
                                           hierarchy.l2.stats.set_misses)
    return results


def run(config: RunConfig = RunConfig(),
        workload: str = WORKLOAD) -> Dict[str, MissDistribution]:
    """Collect per-set miss counts for :data:`SCHEMES`."""
    trace = get_workload(workload).trace(scale=config.scale, seed=config.seed)
    return _measure(trace, SCHEMES)


def render(results: Dict[str, MissDistribution],
           workload: str = "tree") -> str:
    sections = [f"Figure 13: L2 miss distribution across sets ({workload})"]
    for scheme, dist in results.items():
        sections.append(sparkline_series(
            list(range(len(dist.set_misses))),
            dist.set_misses.astype(float).tolist(),
            title=f"{scheme}: total misses {dist.total}",
        ))
    rows = [
        [
            dist.scheme,
            dist.total,
            f"{dist.top_fraction_share(0.1):.1%}",
            f"{dist.coefficient_of_variation():.2f}",
        ]
        for dist in results.values()
    ]
    sections.append(format_table(
        ["scheme", "total misses", "misses in top 10% of sets", "CV"],
        rows,
    ))
    return "\n\n".join(sections)


def _build(ctx: ExperimentContext) -> Dict:
    """Per-set miss counts on the engine's machine, cached as one cell
    (the counts are not part of ExecutionResult)."""
    engine = ctx.engine

    def compute() -> Dict:
        measured = _measure(engine.traces.get(WORKLOAD), SCHEMES,
                            engine.machine)
        return {scheme: dist.set_misses.astype(int).tolist()
                for scheme, dist in measured.items()}

    params = {"schemes": list(SCHEMES),
              "machine": machine_fingerprint(engine.machine)}
    return {
        "workload": WORKLOAD,
        "distributions": ctx.cached(WORKLOAD, "set_misses", params, compute),
    }


def _render_artifact(artifact: Mapping) -> str:
    data = artifact["data"]
    results = {
        scheme: MissDistribution(scheme, np.asarray(counts))
        for scheme, counts in data["distributions"].items()
    }
    return render(results, workload=data["workload"])


register(ExperimentSpec(
    name="miss_distribution",
    title="Figure 13: per-set L2 miss distribution",
    build=_build,
    render=_render_artifact,
))
