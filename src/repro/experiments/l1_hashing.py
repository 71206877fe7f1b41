"""Section 3.3's L1 claim: "This makes the XOR a particularly bad
choice for indexing the L1 cache."

Two parts:

1. The paper's own example: a 4 KB, 4-way, 64 B-line cache has 16 sets;
   with stride ``s = n_set − 1 = 15`` XOR indexing degenerates to
   "sets 0, 15, 15, 15, ..." — and strides 3 and 5 (factors of 15)
   fail too.  We measure the balance of every L1-sized hash at those
   strides.
2. A hierarchy-level check: swapping the L1's indexing function and
   driving the paper's workloads shows XOR at L1 losing to traditional
   on odd-stride-rich traffic, while prime modulo at L1 stays safe —
   the reason the paper targets the L2 (where fragmentation is
   negligible and latency is hidden) and leaves L1 alone.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.cache import CacheHierarchy, SetAssociativeCache
from repro.cpu import MachineConfig, Simulator
from repro.engine import ExperimentContext, ExperimentSpec, register
from repro.experiments.common import RunConfig
from repro.hashing import (
    balance,
    concentration,
    make_indexing,
    strided_addresses,
)
from repro.memory import DramModel
from repro.reporting import format_table
from repro.workloads import get_workload

#: The paper's L1 example geometry: 4 KB, 4-way, 64 B lines -> 16 sets.
EXAMPLE_L1_SETS = 16


@dataclass(frozen=True)
class L1BalanceRow:
    """Short-window balance and concentration per hash at one stride.

    A tiny cache cycles its tag bits quickly, so XOR's failure at
    ``s = n_set − 1`` shows up as *bursts* (sets 0, 15, 15, 15, ... in
    the paper's quote): terrible balance over a loop-sized window and
    terrible concentration over a long run, even though the infinite-
    horizon balance eventually averages out.
    """

    stride: int
    balances: Dict[str, float]       #: over a 64-access window
    concentrations: Dict[str, float]  #: over 4096 accesses


def example_balance(strides=(1, 3, 5, 15, 16, 17),
                    window: int = 64) -> List[L1BalanceRow]:
    """Metrics at the paper's quoted bad strides for a 16-set cache."""
    hashes = {key: make_indexing(key, EXAMPLE_L1_SETS)
              for key in ("traditional", "xor", "pmod", "pdisp")}
    rows = []
    for stride in strides:
        short = strided_addresses(stride, window)
        long = strided_addresses(stride, 4096)
        rows.append(L1BalanceRow(
            stride,
            {key: balance(h, short) for key, h in hashes.items()},
            {key: concentration(h, long) for key, h in hashes.items()},
        ))
    return rows


def _hierarchy_with_l1_indexing(key: str, config: MachineConfig) -> CacheHierarchy:
    l1 = SetAssociativeCache(
        config.l1_sets, config.l1_assoc, make_indexing(key, config.l1_sets),
        name=f"L1/{key}",
    )
    l2 = SetAssociativeCache(
        config.l2_sets, config.l2_assoc,
        make_indexing("traditional", config.l2_sets), name="L2",
    )
    return CacheHierarchy([(l1, config.l1_block_bytes),
                           (l2, config.l2_block_bytes)])


def l1_miss_comparison(config: RunConfig = RunConfig(),
                       apps=("swim", "tomcatv", "lu"),
                       l1_keys=("traditional", "xor", "pmod")) -> Dict[str, Dict[str, int]]:
    """L1 miss counts per L1 indexing key for unit-stride-rich apps."""
    machine = MachineConfig.paper_default()
    results: Dict[str, Dict[str, int]] = {}
    for app in apps:
        trace = get_workload(app).trace(scale=config.scale, seed=config.seed)
        results[app] = {}
        for key in l1_keys:
            hierarchy = _hierarchy_with_l1_indexing(key, machine)
            sim = Simulator(hierarchy, DramModel(machine.dram_config()),
                            machine, scheme=f"l1-{key}")
            sim.run(trace)
            results[app][key] = hierarchy.l1.stats.misses
    return results


def render(rows: List[L1BalanceRow],
           miss_results: Dict[str, Dict[str, int]]) -> str:
    keys = list(rows[0].balances)
    table1 = format_table(
        ["stride"] + [f"bal({k})" for k in keys]
        + [f"conc({k})" for k in keys],
        [
            [r.stride]
            + [f"{r.balances[k]:.2f}" for k in keys]
            + [f"{r.concentrations[k]:.1f}" for k in keys]
            for r in rows
        ],
        title=f"L1 example ({EXAMPLE_L1_SETS} sets): short-window balance "
              "(1.0 ideal) and concentration (0.0 ideal)",
    )
    apps = list(miss_results)
    l1_keys = list(next(iter(miss_results.values())))
    table2 = format_table(
        ["app"] + [f"L1 misses ({k})" for k in l1_keys],
        [[app] + [miss_results[app][k] for k in l1_keys] for app in apps],
        title="L1 miss counts by L1 indexing function",
    )
    return table1 + "\n\n" + table2


def run(config: RunConfig = RunConfig()):
    """Both halves of the experiment: (example rows, hierarchy misses)."""
    return example_balance(), l1_miss_comparison(config)


def _build(ctx: ExperimentContext) -> Dict:
    rows, misses = run(ctx.config)
    return {
        "balance_rows": [
            {
                "stride": r.stride,
                "balances": r.balances,
                "concentrations": r.concentrations,
            }
            for r in rows
        ],
        "l1_misses": misses,
    }


def _render_artifact(artifact: Mapping) -> str:
    data = artifact["data"]
    rows = [L1BalanceRow(**r) for r in data["balance_rows"]]
    return render(rows, data["l1_misses"])


register(ExperimentSpec(
    name="l1_hashing",
    title="Section 3.3: why XOR is a bad L1 index",
    build=_build,
    render=_render_artifact,
))


if __name__ == "__main__":
    from repro.experiments.__main__ import main
    main(["l1_hashing", *sys.argv[1:]])
