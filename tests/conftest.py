"""Session-wide fixtures."""

import pytest

from repro.engine import RunConfig, SimulationEngine


@pytest.fixture(scope="session")
def paper_engine():
    """One engine at trace scale 0.4, seed 0, behind every paper-shape
    test (Figures 7-13, Table 4, Section 4) and the full report, so
    each (app, scheme) pair is simulated once per session.  The scale
    is small enough for tier-1 and large enough that the cyclic and
    resident working sets complete several reuse passes, which the
    skewed cache's retention advantage on cg/mst needs."""
    return SimulationEngine(RunConfig(scale=0.4, seed=0))
