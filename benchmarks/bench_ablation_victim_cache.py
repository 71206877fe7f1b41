"""Ablation: victim cache vs prime hashing on conflict-heavy traffic.

Jouppi's victim buffer is the classic hardware fix for conflict misses.
This bench puts a 16- and a 64-entry victim buffer behind the Base L2
and compares against pMod on tree: a buffer absorbs a buffer's worth
of conflicting lines, while re-indexing redistributes thousands — the
quantitative argument for the paper's approach.
"""

from repro.cache import (
    CacheHierarchy,
    SetAssociativeCache,
    VictimCache,
)
from repro.cpu import MachineConfig, Simulator, simulate_scheme
from repro.hashing import TraditionalIndexing
from repro.memory import DramModel
from repro.workloads import get_workload

from conftest import BENCH_SCALE


def simulate_victim(trace, n_entries):
    machine = MachineConfig.paper_default()
    l1 = SetAssociativeCache(machine.l1_sets, machine.l1_assoc,
                             TraditionalIndexing(machine.l1_sets))
    l2 = VictimCache(
        SetAssociativeCache(machine.l2_sets, machine.l2_assoc,
                            TraditionalIndexing(machine.l2_sets)),
        n_victim_entries=n_entries,
    )
    hierarchy = CacheHierarchy([(l1, machine.l1_block_bytes),
                                (l2, machine.l2_block_bytes)])
    sim = Simulator(hierarchy, DramModel(machine.dram_config()), machine,
                    scheme=f"victim{n_entries}")
    return sim.run(trace)


def run_comparison():
    trace = get_workload("tree").trace(scale=BENCH_SCALE, seed=0)
    return {
        "base": simulate_scheme(trace, "base").l2_misses,
        "victim16": simulate_victim(trace, 16).l2_misses,
        "victim64": simulate_victim(trace, 64).l2_misses,
        "pmod": simulate_scheme(trace, "pmod").l2_misses,
    }


def test_ablation_victim_cache(benchmark):
    misses = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print()
    for name, m in misses.items():
        print(f"  {name:10s} L2 misses {m:8d} "
              f"({m / misses['base']:.2f} of Base)")
    # A victim buffer helps a little...
    assert misses["victim64"] <= misses["base"]
    # ...but prime hashing removes far more: tree's conflicting set is
    # thousands of lines, not a buffer's worth.
    assert misses["pmod"] < misses["victim64"] * 0.6
