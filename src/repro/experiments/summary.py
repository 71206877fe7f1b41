"""Table 4: min/avg/max speedups and pathological-case counts per cache
configuration, over the uniform and non-uniform application groups.

A pathological case is a slowdown of more than 1% relative to Base
(the paper's definition).
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Sequence

from repro.engine import (
    ExperimentContext,
    ExperimentSpec,
    SimulationEngine,
    register,
)
from repro.experiments.common import RunConfig
from repro.reporting import format_table
from repro.workloads import NONUNIFORM_APPS, UNIFORM_APPS

#: Schemes summarized by Table 4, in the paper's row order.
SUMMARY_SCHEMES = ("xor", "pmod", "pdisp", "skw", "skw+pdisp")

#: The paper's pathological threshold: >1% slowdown vs Base.
PATHOLOGICAL_THRESHOLD = 0.01


@dataclass(frozen=True)
class SchemeSummary:
    """One row of Table 4."""

    scheme: str
    uniform_min: float
    uniform_avg: float
    uniform_max: float
    nonuniform_min: float
    nonuniform_avg: float
    nonuniform_max: float
    pathological_cases: int
    pathological_apps: tuple


def summarize_scheme(scheme: str, store: SimulationEngine) -> SchemeSummary:
    uniform = [store.speedup(app, scheme) for app in UNIFORM_APPS]
    nonuniform = [store.speedup(app, scheme) for app in NONUNIFORM_APPS]
    slow = tuple(
        app for app in (*UNIFORM_APPS, *NONUNIFORM_APPS)
        if store.speedup(app, scheme) < 1.0 - PATHOLOGICAL_THRESHOLD
    )
    return SchemeSummary(
        scheme=scheme,
        uniform_min=min(uniform),
        uniform_avg=sum(uniform) / len(uniform),
        uniform_max=max(uniform),
        nonuniform_min=min(nonuniform),
        nonuniform_avg=sum(nonuniform) / len(nonuniform),
        nonuniform_max=max(nonuniform),
        pathological_cases=len(slow),
        pathological_apps=slow,
    )


def run(config: RunConfig = RunConfig(), store: SimulationEngine = None,
        schemes: Sequence[str] = SUMMARY_SCHEMES) -> List[SchemeSummary]:
    store = store or SimulationEngine(config)
    return [summarize_scheme(scheme, store) for scheme in schemes]


def render(summaries: List[SchemeSummary]) -> str:
    rows = []
    for s in summaries:
        rows.append([
            s.scheme,
            f"{s.uniform_min:.2f},{s.uniform_avg:.2f},{s.uniform_max:.2f}",
            f"{s.nonuniform_min:.2f},{s.nonuniform_avg:.2f},{s.nonuniform_max:.2f}",
            s.pathological_cases,
        ])
    table = format_table(
        ["Cache Hashing", "Uniform (min,avg,max)",
         "Non-uniform (min,avg,max)", "Patho. cases"],
        rows,
        title="Table 4: Summary of performance improvement",
    )
    notes = [
        f"{s.scheme}: slows {', '.join(s.pathological_apps)}"
        for s in summaries if s.pathological_apps
    ]
    return table + ("\n" + "\n".join(notes) if notes else "")


def _build(ctx: ExperimentContext) -> Dict:
    engine = ctx.engine
    schemes = tuple(ctx.param("schemes", SUMMARY_SCHEMES))
    engine.run_grid((*UNIFORM_APPS, *NONUNIFORM_APPS),
                    ("base", *schemes))
    summaries = run(store=engine, schemes=schemes)
    return {"schemes": [asdict(s) for s in summaries]}


def _render_artifact(artifact: Mapping) -> str:
    summaries = [
        SchemeSummary(**{
            **payload, "pathological_apps": tuple(payload["pathological_apps"]),
        })
        for payload in artifact["data"]["schemes"]
    ]
    return render(summaries)


register(ExperimentSpec(
    name="summary",
    title="Table 4: speedup summary and pathological cases",
    build=_build,
    render=_render_artifact,
))


if __name__ == "__main__":
    from repro.experiments.__main__ import main
    main(["summary", *sys.argv[1:]])
