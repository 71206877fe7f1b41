"""Shared settings and fixtures for the benchmark harness.

The paper's tables and figures are asserted in tier-1
(``tests/experiments/``), not here.  These benches time the ablations
and the store/serve/cluster stack; most print their result (visible
with ``-s``), and the stack benches write the root ``BENCH_*.json``
files.
"""

import pytest

from repro.obs import (
    Journal,
    disable_observability,
    get_collector,
    get_registry,
    set_journal,
)

#: Trace scale used by the simulation ablations; small enough that the
#: harness finishes in minutes, large enough that the cyclic /
#: resident working sets complete multiple reuse passes.
BENCH_SCALE = 0.4


@pytest.fixture(autouse=True)
def _isolate_global_observability():
    """Every bench leaves the global registry and trace collector off
    and empty, and the global journal a fresh disabled one, so a bench
    that enables observability cannot leak series into the next (the
    disabled-overhead guard asserts an empty registry)."""
    yield
    disable_observability()
    get_registry().clear()
    get_collector().clear()
    set_journal(Journal(enabled=False))
