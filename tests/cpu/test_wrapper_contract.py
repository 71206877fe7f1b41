"""The call contract that lets a caller time and trace each layer of
``Simulator.run``.

``benchmarks/suite/workloads.py`` builds a :class:`Simulator`, then sets
wrappers as instance attributes on ``hierarchy.access``,
``hierarchy.l1.access``, ``hierarchy.l2.access`` and ``dram.service``
(the ticked and the traced paper-fig7 passes).  Each wrapper must see
every call of its layer, and wrapping must not change the result.
"""

from collections import Counter
from dataclasses import asdict

import pytest

from repro.cpu import MachineConfig, Simulator
from repro.cpu.config import build_hierarchy
from repro.memory import DramModel
from repro.workloads import get_workload


def build(scheme):
    machine = MachineConfig.paper_default()
    return Simulator(build_hierarchy(scheme, machine),
                     DramModel(machine.dram_config()), machine, scheme=scheme)


def count_calls(obj, attr, layer, calls):
    """Set a wrapper on ``obj`` that counts each call of ``obj.attr``."""
    original = getattr(obj, attr)

    def counted(*args, **kwargs):
        calls[layer] += 1
        return original(*args, **kwargs)

    setattr(obj, attr, counted)


@pytest.fixture(scope="module")
def trace():
    return get_workload("mcf").trace(scale=0.05, seed=0)


@pytest.mark.parametrize("scheme", ["pmod", "skw"])
@pytest.mark.parametrize("warmup_fraction", [0.0, 0.25])
def test_wrappers_see_every_call(trace, scheme, warmup_fraction):
    sim = build(scheme)
    hierarchy = sim.hierarchy
    calls = Counter()
    count_calls(hierarchy, "access", "hierarchy", calls)
    count_calls(hierarchy.l1, "access", "l1", calls)
    count_calls(hierarchy.l2, "access", "l2", calls)
    count_calls(sim.dram, "service", "dram", calls)

    result = sim.run(trace, warmup_fraction=warmup_fraction)

    assert calls["hierarchy"] == len(trace)  # warm-up included
    assert calls["l1"] == len(trace)
    if warmup_fraction == 0.0:
        assert calls["l2"] == result.l2_accesses
    dram = sim.dram.stats
    assert calls["dram"] == dram.reads + dram.writes > 0
    assert asdict(result) == asdict(
        build(scheme).run(trace, warmup_fraction=warmup_fraction))
