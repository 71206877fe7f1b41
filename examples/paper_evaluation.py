"""Run the paper's full evaluation pipeline end to end (scaled down).

Regenerates every table and figure (Tables 1-4, Figures 5-13) through
the experiment registry at a reduced trace scale so the whole thing
completes in a few minutes; pass ``--scale 1.0`` for the full-length
traces used by EXPERIMENTS.md.

Run:  python examples/paper_evaluation.py [--scale 0.25] [--seed 0]
      [--jobs 4] [--cache-dir .repro-cache]
"""

from repro.experiments.common import context_from_args, standard_argparser
from repro.reporting.report import paper_sections


def main() -> None:
    parser = standard_argparser(__doc__)
    parser.set_defaults(scale=0.25)
    engine = context_from_args(parser.parse_args()).engine
    for _, text in paper_sections(engine):
        print(text, "\n")


if __name__ == "__main__":
    main()
