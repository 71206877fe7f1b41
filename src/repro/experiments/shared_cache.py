"""Shared-L2 multiprogramming: does prime hashing survive a co-runner?

Timeshares pairs of workloads on one L2 (quantum-interleaved traces,
disjoint address spaces) and compares schemes.  Two questions:

1. Does the conflict victim (e.g. tree) keep its pMod win when a
   streaming co-runner (e.g. swim) pollutes the cache?
2. Does any scheme create *new* cross-program pathologies — a pair
   whose combined misses exceed the sum of its solo runs by more under
   one index than another?
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.cpu import simulate_scheme
from repro.engine import ExperimentContext, ExperimentSpec, register
from repro.experiments.common import RunConfig
from repro.reporting import format_table
from repro.trace.multiprogram import interleave_traces
from repro.workloads import get_workload

DEFAULT_PAIRS = (("tree", "swim"), ("mcf", "lu"), ("bt", "gap"))
DEFAULT_SCHEMES = ("base", "pmod", "pdisp", "skw+pdisp")

#: Accesses each program runs before the shared L2 switches to the
#: other.
QUANTUM = 2048


@dataclass(frozen=True)
class SharedCacheResult:
    """Miss counts for one pair under one scheme."""

    pair: Tuple[str, str]
    scheme: str
    combined_misses: int
    solo_misses_sum: int

    @property
    def interference_factor(self) -> float:
        """Combined misses over the sum of solo misses (1.0 = none)."""
        if self.solo_misses_sum == 0:
            return 1.0
        return self.combined_misses / self.solo_misses_sum


def run(pairs: Sequence[Tuple[str, str]] = DEFAULT_PAIRS,
        config: RunConfig = RunConfig(),
        schemes: Sequence[str] = DEFAULT_SCHEMES) -> List[SharedCacheResult]:
    results = []
    solo_cache: Dict[Tuple[str, str], int] = {}
    for first_name, second_name in pairs:
        first = get_workload(first_name).trace(scale=config.scale,
                                               seed=config.seed)
        second = get_workload(second_name).trace(scale=config.scale,
                                                 seed=config.seed + 1)
        combined = interleave_traces(first, second, quantum=QUANTUM)
        for scheme in schemes:
            for name, trace in ((first_name, first), (second_name, second)):
                key = (name, scheme)
                if key not in solo_cache:
                    solo_cache[key] = simulate_scheme(
                        trace, scheme,
                        skew_replacement=config.skew_replacement,
                    ).l2_misses
            combined_misses = simulate_scheme(
                combined, scheme, skew_replacement=config.skew_replacement
            ).l2_misses
            results.append(SharedCacheResult(
                pair=(first_name, second_name),
                scheme=scheme,
                combined_misses=combined_misses,
                solo_misses_sum=(solo_cache[(first_name, scheme)]
                                 + solo_cache[(second_name, scheme)]),
            ))
    return results


def render(results: List[SharedCacheResult]) -> str:
    return format_table(
        ["pair", "scheme", "combined misses", "solo sum", "interference"],
        [
            ["+".join(r.pair), r.scheme, r.combined_misses,
             r.solo_misses_sum, f"{r.interference_factor:.3f}"]
            for r in results
        ],
        title="Shared-L2 multiprogramming: misses vs solo runs",
    )


def _build(ctx: ExperimentContext) -> Dict:
    return {"results": [asdict(r) for r in run(config=ctx.config)]}


def _render_artifact(artifact: Mapping) -> str:
    results = [
        SharedCacheResult(**{**r, "pair": tuple(r["pair"])})
        for r in artifact["data"]["results"]
    ]
    return render(results)


register(ExperimentSpec(
    name="shared_cache",
    title="Extension: shared-L2 multiprogramming interference",
    build=_build,
    render=_render_artifact,
))
