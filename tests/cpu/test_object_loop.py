"""Recorded results of the hierarchies only ``Simulator.run`` times.

``simulate_scheme`` sends the skw, skw+pdisp and fa L2s through the
object loop, one ``CacheHierarchy.access`` per access, and a victim-cache
L2 only ever runs there, so ``tests/cpu/test_fastpath.py`` covers none
of them.  Each run below is long enough for thousands of L1 and L2
write-backs, and every :class:`ExecutionResult` field is asserted
exactly: a change to the hierarchy's write-back/write-allocate order or
to the timing loop moves at least one of them.
"""

from dataclasses import asdict

import pytest

from repro.cache import CacheHierarchy, SetAssociativeCache, VictimCache
from repro.cpu import MachineConfig, Simulator, simulate_scheme
from repro.hashing import TraditionalIndexing
from repro.memory import DramModel
from repro.workloads import get_workload

FIELDS = ("busy", "other_stalls", "memory_stall", "l1_misses",
          "l2_accesses", "l2_misses", "dram_row_hits", "dram_row_misses")

#: (workload, scheme) at scale 0.5, seed 0 -> ExecutionResult fields.
OBJECT_LOOP_RESULTS = {
    ("mcf", "skw"): (45000.0, 11520.0, 10485742.690905262,
                     59764, 71653, 46810, 24, 46784),
    ("mcf", "skw+pdisp"): (45000.0, 11520.0, 10353178.945451267,
                           59764, 71653, 46181, 20, 46159),
    ("mcf", "fa"): (45000.0, 11520.0, 10143002.581815794,
                    59764, 71653, 45177, 12, 45165),
    ("tree", "skw"): (3000000.0, 8640.0, 3056087.9666743027,
                      59668, 65658, 12482, 5, 12477),
    ("tree", "skw+pdisp"): (3000000.0, 8640.0, 3017722.733340984,
                            59668, 65658, 12282, 4, 12278),
    ("tree", "fa"): (3000000.0, 8640.0, 2902931.533341009,
                     59668, 65658, 11682, 4, 11678),
}


def expected(workload, scheme, values):
    return {"workload": workload, "scheme": scheme, **dict(zip(FIELDS, values))}


@pytest.mark.parametrize("workload,scheme", sorted(OBJECT_LOOP_RESULTS))
def test_skewed_and_fully_associative_l2s(workload, scheme):
    trace = get_workload(workload).trace(scale=0.5, seed=0)
    assert asdict(simulate_scheme(trace, scheme)) == expected(
        workload, scheme, OBJECT_LOOP_RESULTS[(workload, scheme)])


def test_victim_cache_l2():
    """A 16-entry victim buffer behind the Base L2, on tree at scale
    0.4 (as ``benchmarks/bench_ablation_victim_cache.py`` runs it)."""
    machine = MachineConfig.paper_default()
    l1 = SetAssociativeCache(machine.l1_sets, machine.l1_assoc,
                             TraditionalIndexing(machine.l1_sets))
    l2 = VictimCache(
        SetAssociativeCache(machine.l2_sets, machine.l2_assoc,
                            TraditionalIndexing(machine.l2_sets)),
        n_victim_entries=16,
    )
    hierarchy = CacheHierarchy([(l1, machine.l1_block_bytes),
                                (l2, machine.l2_block_bytes)])
    sim = Simulator(hierarchy, DramModel(machine.dram_config()), machine,
                    scheme="victim16")
    result = sim.run(get_workload("tree").trace(scale=0.4, seed=0))
    assert asdict(result) == expected(
        "tree", "victim16", (2400000.0, 6912.0, 8038420.633334654,
                             47713, 52519, 39234, 49, 39185))
