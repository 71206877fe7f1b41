"""Figures 9 and 10: normalized execution time under multiple hashing
functions (Base, pMod, SKW, skw+pDisp).

pMod carries over as the best single-hash scheme from Figures 7-8; the
skewed associative caches trade a higher average speedup on the
non-uniform applications for pathological slowdowns on some uniform
ones (Section 5.3).
"""

from __future__ import annotations

import sys
from typing import Dict, Mapping

from repro.engine import (
    ExperimentContext,
    ExperimentSpec,
    SimulationEngine,
    register,
)
from repro.experiments.common import RunConfig
from repro.experiments.single_hash import (
    ExecutionTimeFigure,
    build_figure,
    figure_from_payload,
    figure_payload,
    render,
)
from repro.workloads import NONUNIFORM_APPS, UNIFORM_APPS

#: Schemes of Figures 9-10, in presentation order.
MULTI_HASH_SCHEMES = ("base", "pmod", "skw", "skw+pdisp")


def run(config: RunConfig = RunConfig(), store: SimulationEngine = None):
    """Both figures; returns (figure9, figure10)."""
    store = store or SimulationEngine(config)
    fig9 = build_figure(
        "Figure 9: multiple hashing, non-uniform applications",
        NONUNIFORM_APPS, MULTI_HASH_SCHEMES, store,
    )
    fig10 = build_figure(
        "Figure 10: multiple hashing, uniform applications",
        UNIFORM_APPS, MULTI_HASH_SCHEMES, store,
    )
    return fig9, fig10


def pathological_cases(figure: ExecutionTimeFigure, scheme: str,
                       threshold: float = 0.01):
    """Apps this scheme slows by more than ``threshold`` vs Base."""
    return [
        app for app in figure.apps
        if figure.speedup(app, scheme) < 1.0 - threshold
    ]


def _build(ctx: ExperimentContext) -> Dict:
    engine = ctx.engine
    engine.run_grid((*NONUNIFORM_APPS, *UNIFORM_APPS), MULTI_HASH_SCHEMES)
    fig9, fig10 = run(store=engine)
    return {"figures": [figure_payload(fig9), figure_payload(fig10)]}


def _render_artifact(artifact: Mapping) -> str:
    figures = [figure_from_payload(p) for p in artifact["data"]["figures"]]
    sections = [render(figure) for figure in figures]
    notes = []
    for scheme in ("skw", "skw+pdisp"):
        slow = pathological_cases(figures[-1], scheme)
        notes.append(f"{scheme}: pathological slowdowns on uniform apps: "
                     f"{', '.join(slow) if slow else 'none'}")
    return "\n\n".join(sections) + "\n\n" + "\n".join(notes)


register(ExperimentSpec(
    name="multi_hash",
    title="Figures 9-10: normalized execution time, multiple hashing",
    build=_build,
    render=_render_artifact,
))


if __name__ == "__main__":
    from repro.experiments.__main__ import main
    main(["multi_hash", *sys.argv[1:]])
