"""Figures 11 and 12: normalized L2 miss counts
(Base, pMod, pDisp, skw+pDisp, FA).

Key reference observations (Section 5.5): the proposed hashing removes
over 30% of the misses on average for the non-uniform applications —
nearly all of them for bt and tree; skw+pDisp can beat even a fully
associative cache on cg; pMod/pDisp never increase misses materially on
the uniform applications, while skw+pDisp inflates several by up to
~20%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

from repro.engine import (
    ExperimentContext,
    ExperimentSpec,
    SimulationEngine,
    register,
)
from repro.experiments.common import RunConfig
from repro.reporting import bar_chart, format_table
from repro.workloads import NONUNIFORM_APPS, UNIFORM_APPS

#: Schemes of Figures 11-12, in presentation order.
MISS_SCHEMES = ("base", "pmod", "pdisp", "skw+pdisp", "fa")


@dataclass
class MissFigure:
    """Normalized miss counts for one application group."""

    title: str
    apps: Sequence[str]
    schemes: Sequence[str]
    normalized: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def average(self, scheme: str) -> float:
        return sum(self.normalized[a][scheme] for a in self.apps) / len(self.apps)


def build_figure(title: str, apps: Sequence[str], store: SimulationEngine,
                 schemes: Sequence[str] = MISS_SCHEMES) -> MissFigure:
    figure = MissFigure(title=title, apps=list(apps), schemes=list(schemes))
    for app in apps:
        figure.normalized[app] = {
            scheme: store.miss_ratio(app, scheme) for scheme in schemes
        }
    return figure


def run(config: RunConfig = RunConfig(), store: SimulationEngine = None):
    """Both figures; returns (figure11, figure12)."""
    store = store or SimulationEngine(config)
    fig11 = build_figure("Figure 11: normalized L2 misses, non-uniform apps",
                         NONUNIFORM_APPS, store)
    fig12 = build_figure("Figure 12: normalized L2 misses, uniform apps",
                         UNIFORM_APPS, store)
    return fig11, fig12


def render(figure: MissFigure) -> str:
    sections = [figure.title]
    for app in figure.apps:
        labels = [f"{app}/{s}" for s in figure.schemes]
        values = [figure.normalized[app][s] for s in figure.schemes]
        sections.append(bar_chart(labels, values, reference=1.0))
    rows = [
        [scheme, f"{figure.average(scheme):.3f}"]
        for scheme in figure.schemes
    ]
    sections.append(format_table(["scheme", "avg normalized misses"], rows))
    return "\n\n".join(sections)


def figure_payload(figure: MissFigure) -> Dict:
    """JSON-serializable form of one miss figure."""
    return {
        "title": figure.title,
        "apps": list(figure.apps),
        "schemes": list(figure.schemes),
        "normalized": figure.normalized,
    }


def figure_from_payload(payload: Mapping) -> MissFigure:
    """Inverse of :func:`figure_payload`."""
    figure = MissFigure(
        title=payload["title"],
        apps=list(payload["apps"]),
        schemes=list(payload["schemes"]),
    )
    figure.normalized = {
        app: dict(by_scheme) for app, by_scheme in payload["normalized"].items()
    }
    return figure


def _build(ctx: ExperimentContext) -> Dict:
    engine = ctx.engine
    engine.run_grid((*NONUNIFORM_APPS, *UNIFORM_APPS), MISS_SCHEMES)
    fig11, fig12 = run(store=engine)
    return {"figures": [figure_payload(fig11), figure_payload(fig12)]}


def _render_artifact(artifact: Mapping) -> str:
    return "\n\n".join(
        render(figure_from_payload(payload))
        for payload in artifact["data"]["figures"]
    )


register(ExperimentSpec(
    name="miss_reduction",
    title="Figures 11-12: normalized L2 miss counts",
    build=_build,
    render=_render_artifact,
))
