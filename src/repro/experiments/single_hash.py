"""Figures 7 and 8: normalized execution time under single hashing
functions (Base, 8-way, XOR, pMod, pDisp).

Figure 7 covers the applications with non-uniform cache accesses;
Figure 8 the uniform ones.  Bars are normalized to Base and broken into
Busy / Other Stalls / Memory Stall, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Sequence

from repro.cpu import NormalizedTime
from repro.engine import (
    ExperimentContext,
    ExperimentSpec,
    SimulationEngine,
    register,
)
from repro.experiments.common import RunConfig
from repro.reporting import format_table, stacked_bar_chart
from repro.workloads import NONUNIFORM_APPS, UNIFORM_APPS

#: Schemes of Figures 7-8, in presentation order.
SINGLE_HASH_SCHEMES = ("base", "8way", "xor", "pmod", "pdisp")


@dataclass
class ExecutionTimeFigure:
    """One of the normalized-execution-time figures."""

    title: str
    apps: Sequence[str]
    schemes: Sequence[str]
    bars: Dict[str, Dict[str, NormalizedTime]] = field(default_factory=dict)

    def normalized_total(self, app: str, scheme: str) -> float:
        return self.bars[app][scheme].total

    def speedup(self, app: str, scheme: str) -> float:
        return 1.0 / self.normalized_total(app, scheme)

    def average_speedup(self, scheme: str) -> float:
        speedups = [self.speedup(app, scheme) for app in self.apps]
        return sum(speedups) / len(speedups)


def build_figure(title: str, apps: Sequence[str], schemes: Sequence[str],
                 store: SimulationEngine) -> ExecutionTimeFigure:
    """Simulate every (app, scheme) pair and normalize to Base."""
    figure = ExecutionTimeFigure(title=title, apps=list(apps),
                                 schemes=list(schemes))
    for app in apps:
        base = store.result(app, "base")
        figure.bars[app] = {
            scheme: store.result(app, scheme).normalized_to(base)
            for scheme in schemes
        }
    return figure


def run(config: RunConfig = RunConfig(), store: SimulationEngine = None):
    """Both figures; returns (figure7, figure8)."""
    store = store or SimulationEngine(config)
    fig7 = build_figure(
        "Figure 7: single hashing, non-uniform applications",
        NONUNIFORM_APPS, SINGLE_HASH_SCHEMES, store,
    )
    fig8 = build_figure(
        "Figure 8: single hashing, uniform applications",
        UNIFORM_APPS, SINGLE_HASH_SCHEMES, store,
    )
    return fig7, fig8


def render(figure: ExecutionTimeFigure) -> str:
    """Stacked bars per app plus a speedup summary table."""
    sections = [figure.title]
    for app in figure.apps:
        labels, segments = [], []
        for scheme in figure.schemes:
            bar = figure.bars[app][scheme]
            labels.append(f"{app}/{scheme}")
            segments.append((bar.busy, bar.other_stalls, bar.memory_stall))
        sections.append(stacked_bar_chart(labels, segments))
    rows = []
    for scheme in figure.schemes:
        speedups = [figure.speedup(app, scheme) for app in figure.apps]
        rows.append([
            scheme,
            f"{min(speedups):.2f}",
            f"{figure.average_speedup(scheme):.2f}",
            f"{max(speedups):.2f}",
        ])
    sections.append(format_table(
        ["scheme", "min speedup", "avg speedup", "max speedup"], rows,
        title="Speedup over Base",
    ))
    return "\n\n".join(sections)


def figure_payload(figure: ExecutionTimeFigure) -> Dict:
    """JSON-serializable form of one execution-time figure."""
    return {
        "title": figure.title,
        "apps": list(figure.apps),
        "schemes": list(figure.schemes),
        "bars": {
            app: {scheme: asdict(bar) for scheme, bar in bars.items()}
            for app, bars in figure.bars.items()
        },
    }


def figure_from_payload(payload: Mapping) -> ExecutionTimeFigure:
    """Inverse of :func:`figure_payload`."""
    figure = ExecutionTimeFigure(
        title=payload["title"],
        apps=list(payload["apps"]),
        schemes=list(payload["schemes"]),
    )
    figure.bars = {
        app: {scheme: NormalizedTime(**bar) for scheme, bar in bars.items()}
        for app, bars in payload["bars"].items()
    }
    return figure


def _build(ctx: ExperimentContext) -> Dict:
    engine = ctx.engine
    engine.run_grid((*NONUNIFORM_APPS, *UNIFORM_APPS), SINGLE_HASH_SCHEMES)
    fig7, fig8 = run(store=engine)
    return {"figures": [figure_payload(fig7), figure_payload(fig8)]}


def _render_artifact(artifact: Mapping) -> str:
    return "\n\n".join(
        render(figure_from_payload(payload))
        for payload in artifact["data"]["figures"]
    )


register(ExperimentSpec(
    name="single_hash",
    title="Figures 7-8: normalized execution time, single hashing",
    build=_build,
    render=_render_artifact,
))
