"""Table 3: parameters of the simulated architecture.

Not an experiment — this prints the configuration constants the
simulator encodes, for comparison against the paper's table.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.cpu import MachineConfig
from repro.engine import ExperimentContext, ExperimentSpec, register
from repro.reporting import format_table


def parameters(config: MachineConfig = None) -> List[List[str]]:
    """Table 3's rows: [parameter name, value] pairs."""
    config = config or MachineConfig.paper_default()
    dram = config.dram_config()
    rows = [
        ["Issue width", config.issue_width],
        ["Frequency (GHz)", config.frequency_ghz],
        ["Pending loads / stores", f"{config.pending_loads} / {config.pending_stores}"],
        ["Branch penalty (cycles)", config.branch_penalty],
        ["L1 data", f"{config.l1_bytes // 1024} KB, {config.l1_assoc}-way, "
                    f"{config.l1_block_bytes}-B line, {config.l1_hit_cycles}-cycle hit RT"],
        ["L2 data", f"{config.l2_bytes // 1024} KB, {config.l2_assoc}-way, "
                    f"{config.l2_block_bytes}-B line, {config.l2_hit_cycles}-cycle hit RT"],
        ["L2 sets (physical)", config.l2_sets],
        ["Memory RT (row miss)", f"{dram.row_miss_cycles} cycles"],
        ["Memory RT (row hit)", f"{dram.row_hit_cycles} cycles"],
        ["Memory channels", dram.channels],
    ]
    return [[name, str(value)] for name, value in rows]


def render(config: MachineConfig = None) -> str:
    return format_table(["Parameter", "Value"], parameters(config),
                        title="Table 3: Simulated architecture")


def _build(ctx: ExperimentContext) -> Dict:
    return {"parameters": parameters(ctx.engine.machine)}


def _render_artifact(artifact: Mapping) -> str:
    return format_table(["Parameter", "Value"],
                        artifact["data"]["parameters"],
                        title="Table 3: Simulated architecture")


register(ExperimentSpec(
    name="machine",
    title="Table 3: simulated architecture parameters",
    build=_build,
    render=_render_artifact,
    uses_simulation=False,
))
