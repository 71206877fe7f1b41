"""Seed robustness: are the headline results an artifact of one RNG?

Every workload generator is seeded; this experiment re-runs a chosen
slice of the evaluation across several seeds and reports the spread of
each scheme's speedup.  The reproduction's claims should hold for
*every* seed, not on average — the tests assert the min across seeds.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.engine import (
    ExperimentContext,
    ExperimentSpec,
    SimulationEngine,
    register,
)
from repro.experiments.common import RunConfig
from repro.reporting import format_table


@dataclass(frozen=True)
class SeedSpread:
    """Speedup statistics across seeds for one (workload, scheme)."""

    workload: str
    scheme: str
    speedups: tuple

    @property
    def minimum(self) -> float:
        return min(self.speedups)

    @property
    def maximum(self) -> float:
        return max(self.speedups)

    @property
    def mean(self) -> float:
        return sum(self.speedups) / len(self.speedups)

    @property
    def relative_spread(self) -> float:
        """(max − min) / mean — the run-to-run variability."""
        return (self.maximum - self.minimum) / self.mean


def run(workloads: Sequence[str] = ("tree", "mcf", "lu"),
        schemes: Sequence[str] = ("pmod", "pdisp"),
        seeds: Sequence[int] = (0, 1, 2),
        scale: float = 0.3,
        make_store: Optional[Callable[[RunConfig], SimulationEngine]] = None,
        ) -> List[SeedSpread]:
    """``make_store`` builds the per-seed runner; the default is an
    in-memory :class:`SimulationEngine`, and the registry adapter passes
    engines that share its machine and cache directory."""
    results = []
    make_store = make_store or SimulationEngine
    stores = {
        seed: make_store(RunConfig(scale=scale, seed=seed))
        for seed in seeds
    }
    for workload in workloads:
        for scheme in schemes:
            speedups = tuple(
                stores[seed].speedup(workload, scheme) for seed in seeds
            )
            results.append(SeedSpread(workload, scheme, speedups))
    return results


def render(results: List[SeedSpread]) -> str:
    return format_table(
        ["workload", "scheme", "min", "mean", "max", "spread"],
        [
            [r.workload, r.scheme, f"{r.minimum:.3f}", f"{r.mean:.3f}",
             f"{r.maximum:.3f}", f"{r.relative_spread:.1%}"]
            for r in results
        ],
        title="Speedup across workload RNG seeds",
    )


def _build(ctx: ExperimentContext) -> Dict:
    cache = ctx.engine.cache

    def make_store(config: RunConfig) -> SimulationEngine:
        return SimulationEngine(
            config, machine=ctx.engine.machine,
            cache_dir=None if cache is None else cache.root.parent)

    results = run(
        workloads=tuple(ctx.param("workloads", ("tree", "mcf", "lu"))),
        schemes=tuple(ctx.param("schemes", ("pmod", "pdisp"))),
        seeds=tuple(ctx.param("seeds", (0, 1, 2))),
        scale=ctx.config.scale,
        make_store=make_store,
    )
    return {
        "spreads": [
            {"workload": r.workload, "scheme": r.scheme,
             "speedups": list(r.speedups)}
            for r in results
        ]
    }


def _render_artifact(artifact: Mapping) -> str:
    results = [
        SeedSpread(r["workload"], r["scheme"], tuple(r["speedups"]))
        for r in artifact["data"]["spreads"]
    ]
    return render(results)


register(ExperimentSpec(
    name="seeds",
    title="Ablation: seed robustness of the headline speedups",
    build=_build,
    render=_render_artifact,
))


if __name__ == "__main__":
    from repro.experiments.__main__ import main
    main(["seeds", *sys.argv[1:]])
