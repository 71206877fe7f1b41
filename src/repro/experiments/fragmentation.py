"""Table 1: prime modulo set fragmentation.

Pure number theory: for each power-of-two physical set count, the
largest prime below it and the fraction of sets the prime modulo
hashing leaves unused.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.engine import ExperimentContext, ExperimentSpec, register
from repro.mathutil import largest_prime_below
from repro.reporting import format_table

#: The physical set counts Table 1 tabulates.
PAPER_SET_COUNTS = (256, 512, 1024, 2048, 4096, 8192, 16384)


@dataclass(frozen=True)
class FragmentationRow:
    """One row of Table 1."""

    n_sets_physical: int
    n_sets: int

    @property
    def fragmentation(self) -> float:
        return (self.n_sets_physical - self.n_sets) / self.n_sets_physical


def run(set_counts=PAPER_SET_COUNTS) -> List[FragmentationRow]:
    """Compute Table 1 for the given physical set counts."""
    return [
        FragmentationRow(phys, largest_prime_below(phys))
        for phys in set_counts
    ]


def render(rows: List[FragmentationRow]) -> str:
    """Render Table 1 in the paper's layout."""
    return format_table(
        ["n_set_phys", "n_set", "Fragmentation (%)"],
        [
            [row.n_sets_physical, row.n_sets, f"{row.fragmentation:.2%}"]
            for row in rows
        ],
        title="Table 1: Prime modulo set fragmentation",
    )


def _build(ctx: ExperimentContext) -> Dict:
    set_counts = tuple(ctx.param("set_counts", PAPER_SET_COUNTS))
    rows = run(set_counts)
    return {
        "rows": [
            {
                "n_sets_physical": row.n_sets_physical,
                "n_sets": row.n_sets,
                "fragmentation": row.fragmentation,
            }
            for row in rows
        ]
    }


def _render_artifact(artifact: Mapping) -> str:
    rows = [
        FragmentationRow(r["n_sets_physical"], r["n_sets"])
        for r in artifact["data"]["rows"]
    ]
    return render(rows)


register(ExperimentSpec(
    name="fragmentation",
    title="Table 1: prime modulo set fragmentation",
    build=_build,
    render=_render_artifact,
    uses_simulation=False,
))


if __name__ == "__main__":
    from repro.experiments.__main__ import main
    main(["fragmentation", *sys.argv[1:]])
