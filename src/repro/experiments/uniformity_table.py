"""Section 4's application classification, as a runnable experiment.

The paper: "Let f_1 ... f_nset represent the frequency of accesses to
the sets ... An application is considered to have a non-uniform cache
access behavior if the ratio stdev(f_i)/mean(f_i) is greater than 0.5.
... we found that 30% of them (7 benchmarks) are non-uniform: bt, cg,
ft, irr, mcf, sp, and tree."

This experiment drives every workload through the Base hierarchy,
measures that ratio on the L2 set-access histogram, and reports the
classification next to the paper's.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional

from repro.cpu import build_hierarchy
from repro.engine import (
    ExperimentContext,
    ExperimentSpec,
    TraceMaterializer,
    register,
)
from repro.experiments.common import RunConfig
from repro.hashing import uniformity
from repro.reporting import format_table
from repro.workloads import all_workload_names, get_workload


@dataclass(frozen=True)
class UniformityRow:
    """Measured classification for one application."""

    app: str
    ratio: float
    non_uniform: bool
    paper_non_uniform: bool

    @property
    def agrees_with_paper(self) -> bool:
        return self.non_uniform == self.paper_non_uniform


def run(config: RunConfig = RunConfig(),
        traces: Optional[TraceMaterializer] = None) -> List[UniformityRow]:
    """Classify all 23 applications under Base indexing.

    ``traces`` shares an engine's materialized workload traces instead
    of regenerating them here.
    """
    rows = []
    for name in all_workload_names():
        workload = get_workload(name)
        if traces is not None:
            trace = traces.get(name)
        else:
            trace = workload.trace(scale=config.scale, seed=config.seed)
        hierarchy = build_hierarchy("base")
        for address, is_write in zip(trace.addresses, trace.is_write):
            hierarchy.access(int(address), bool(is_write))
        report = uniformity(hierarchy.l2.stats.set_accesses)
        rows.append(UniformityRow(
            app=name,
            ratio=report.ratio,
            non_uniform=report.non_uniform,
            paper_non_uniform=workload.expected_non_uniform,
        ))
    return rows


def render(rows: List[UniformityRow]) -> str:
    table = format_table(
        ["app", "stdev/mean", "measured", "paper", "agree?"],
        [
            [
                r.app,
                f"{r.ratio:.3f}",
                "non-uniform" if r.non_uniform else "uniform",
                "non-uniform" if r.paper_non_uniform else "uniform",
                "yes" if r.agrees_with_paper else "NO",
            ]
            for r in sorted(rows, key=lambda r: -r.ratio)
        ],
        title="Section 4 classification: L2 set-access uniformity "
              "(threshold 0.5)",
    )
    n_non = sum(r.non_uniform for r in rows)
    agreement = sum(r.agrees_with_paper for r in rows)
    return (f"{table}\n{n_non}/{len(rows)} applications non-uniform "
            f"(paper: 7/23); {agreement}/{len(rows)} agree with the paper.")


def _build(ctx: ExperimentContext) -> Dict:
    rows = run(ctx.config, traces=ctx.engine.traces)
    return {"rows": [asdict(row) for row in rows]}


def _render_artifact(artifact: Mapping) -> str:
    return render([UniformityRow(**row) for row in artifact["data"]["rows"]])


register(ExperimentSpec(
    name="uniformity_table",
    title="Section 4: set-access uniformity classification",
    build=_build,
    render=_render_artifact,
))


if __name__ == "__main__":
    from repro.experiments.__main__ import main
    main(["uniformity_table", *sys.argv[1:]])
