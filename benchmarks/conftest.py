"""Shared fixtures for the benchmark harness.

The simulation benches share one SimulationEngine per scale so that
e.g. the Figure 7 and Figure 9 benches do not re-simulate the Base
runs.  Each bench prints the rendered paper table/figure (visible with
``-s``) and asserts the paper's qualitative shape, so the harness
doubles as a regression gate for the reproduction.
"""

import pytest

from repro.engine import RunConfig, SimulationEngine

#: Trace scale used by the simulation benches; small enough that the
#: whole harness finishes in minutes, large enough that the cyclic /
#: resident working sets complete multiple reuse passes (the skewed
#: cache's retention advantage on cg/mst needs several passes).
BENCH_SCALE = 0.4


@pytest.fixture(scope="session")
def store():
    return SimulationEngine(RunConfig(scale=BENCH_SCALE, seed=0))
