"""One-shot markdown report over a complete evaluation.

``full_report`` renders every paper table and figure into a single
markdown document — the machine-generated counterpart of
EXPERIMENTS.md.  Each section is a registered experiment's artifact,
built with :func:`~repro.engine.run_experiment` on one shared
:class:`~repro.engine.SimulationEngine` and rendered with
:func:`~repro.engine.render_artifact`, the same path as
``python -m repro.experiments <name>``:

    python -m repro.reporting.report --scale 0.5 --jobs 4 \
        --cache-dir .repro-cache > report.md
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.engine import (
    ExperimentContext,
    SimulationEngine,
    render_artifact,
    run_experiment,
)
from repro.experiments.common import context_from_args, standard_argparser

#: The registered experiments behind the paper's Tables 1-4 and
#: Figures 5-13, in the paper's order, each with its ``--param``s.
#: An odd stride step samples both parities (an even step would only
#: ever hit odd strides and hide traditional indexing's failures).
PAPER_EXPERIMENTS = (
    ("fragmentation", {}),
    ("qualitative", {}),
    ("machine", {}),
    ("stride_sweep", {"stride_step": 3}),
    ("single_hash", {}),
    ("multi_hash", {}),
    ("miss_reduction", {}),
    ("miss_distribution", {}),
    ("summary", {}),
)


def paper_sections(engine: SimulationEngine) -> Iterator[Tuple[str, str]]:
    """``(title, rendering)`` of each :data:`PAPER_EXPERIMENTS` artifact,
    every simulation shared through ``engine``."""
    for name, params in PAPER_EXPERIMENTS:
        artifact = run_experiment(name, ExperimentContext(engine,
                                                          dict(params)))
        yield artifact["title"], render_artifact(artifact)


def full_report(engine: SimulationEngine) -> str:
    """Markdown report of Tables 1-4 and Figures 5-13."""
    config = engine.config
    sections: List[str] = [
        "# Prime-number cache indexing — evaluation report",
        f"Trace scale {config.scale}, seed {config.seed}, "
        f"skewed replacement `{config.skew_replacement}`.",
    ]
    for title, text in paper_sections(engine):
        sections.append(f"## {title}")
        sections.append("```\n" + text + "\n```")
    return "\n\n".join(sections) + "\n"


def main() -> None:
    args = standard_argparser(__doc__).parse_args()
    print(full_report(context_from_args(args).engine))


if __name__ == "__main__":
    main()
