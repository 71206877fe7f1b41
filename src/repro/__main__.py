"""``python -m repro`` — list the registered experiments."""

from repro.experiments.__main__ import list_experiments

HEADER = """repro — 'Using Prime Numbers for Cache Indexing to Eliminate
Conflict Misses' (HPCA 2004) reproduction.

  python -m repro.experiments <name> [--scale S] [--seed N] [--jobs J]
      [--cache-dir DIR] [--param KEY=VALUE ...] [--artifact PATH] [--check]
  python examples/paper_evaluation.py      every paper table and figure
  make figures                             artifacts/<name>.json

Registered experiments:
"""


def main() -> None:
    print(HEADER + list_experiments())


if __name__ == "__main__":
    main()
