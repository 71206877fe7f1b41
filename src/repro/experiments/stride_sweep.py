"""Figures 5 and 6: balance and concentration vs stride (1..2047).

Reproduces the synthetic strided-access sweep for the four single-hash
functions.  The paper's reference observations (Section 5.1):

* Traditional — bad balance and concentration on even strides, ideal on
  odd strides.
* pMod — ideal everywhere except stride = n_set (2039).
* XOR — non-ideal balance clustered at small strides; never ideal
  concentration for non-trivial strides.
* pDisp — non-ideal balance concentrated mid-range; concentration close
  to ideal thanks to partial sequence invariance.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Mapping

import numpy as np

from repro.engine import ExperimentContext, ExperimentSpec, register
from repro.hashing import (
    IndexingFunction,
    PrimeDisplacementIndexing,
    PrimeModuloIndexing,
    TraditionalIndexing,
    XorIndexing,
    balance,
    concentration,
    strided_addresses,
)
from repro.reporting import sparkline_series


def default_hashes(n_sets_physical: int = 2048) -> Dict[str, IndexingFunction]:
    """The four functions of Figures 5-6, in paper order."""
    return {
        "Traditional": TraditionalIndexing(n_sets_physical),
        "pMod": PrimeModuloIndexing(n_sets_physical),
        "pDisp": PrimeDisplacementIndexing(n_sets_physical),
        "XOR": XorIndexing(n_sets_physical),
    }


@dataclass
class StrideSweep:
    """Balance and concentration series for one hashing function."""

    name: str
    strides: np.ndarray
    balance: np.ndarray
    concentration: np.ndarray

    def worst_balance_strides(self, top: int = 5) -> List[int]:
        order = np.argsort(self.balance)[::-1]
        return [int(self.strides[i]) for i in order[:top]]

    def ideal_balance_fraction(self, tolerance: float = 1.1) -> float:
        return float((self.balance <= tolerance).mean())

    def ideal_concentration_fraction(self, tolerance: float = 1.0) -> float:
        return float((self.concentration <= tolerance).mean())


def sweep(indexing: IndexingFunction, strides: np.ndarray,
          n_addresses: int) -> StrideSweep:
    """Measure balance and concentration over the given strides."""
    balances = np.empty(len(strides))
    concentrations = np.empty(len(strides))
    for i, s in enumerate(strides):
        addrs = strided_addresses(int(s), n_addresses)
        balances[i] = balance(indexing, addrs)
        concentrations[i] = concentration(indexing, addrs)
    return StrideSweep(indexing.name, np.asarray(strides), balances,
                       concentrations)


def run(n_sets_physical: int = 2048, max_stride: int = 2047,
        n_addresses: int = 8192, stride_step: int = 1) -> Dict[str, StrideSweep]:
    """Run the full Figure 5/6 sweep for all four hashing functions."""
    strides = np.arange(1, max_stride + 1, stride_step)
    return {
        name: sweep(h, strides, n_addresses)
        for name, h in default_hashes(n_sets_physical).items()
    }


def render(results: Dict[str, StrideSweep], balance_cap: float = 10.0) -> str:
    """Terminal plots in the paper's layout (balance capped at 10)."""
    sections = []
    for name, s in results.items():
        sections.append(sparkline_series(
            s.strides.tolist(), s.balance.tolist(),
            title=f"Figure 5: balance vs stride — {name} "
                  f"(ideal on {s.ideal_balance_fraction():.0%} of strides)",
            y_cap=balance_cap,
        ))
    for name, s in results.items():
        sections.append(sparkline_series(
            s.strides.tolist(), s.concentration.tolist(),
            title=f"Figure 6: concentration vs stride — {name} "
                  f"(ideal on {s.ideal_concentration_fraction():.0%} of strides)",
            y_cap=float(np.percentile(s.concentration, 99)) or 1.0,
        ))
    return "\n\n".join(sections)


def _build(ctx: ExperimentContext) -> Dict:
    results = run(
        n_sets_physical=int(ctx.param("n_sets_physical", 2048)),
        max_stride=int(ctx.param("max_stride", 2047)),
        n_addresses=int(ctx.param("n_addresses", 8192)),
        stride_step=int(ctx.param("stride_step", 1)),
    )
    return {
        "sweeps": {
            name: {
                "strides": s.strides.tolist(),
                "balance": s.balance.tolist(),
                "concentration": s.concentration.tolist(),
            }
            for name, s in results.items()
        }
    }


def _render_artifact(artifact: Mapping) -> str:
    results = {
        name: StrideSweep(
            name,
            np.asarray(payload["strides"]),
            np.asarray(payload["balance"]),
            np.asarray(payload["concentration"]),
        )
        for name, payload in artifact["data"]["sweeps"].items()
    }
    return render(results)


register(ExperimentSpec(
    name="stride_sweep",
    title="Figures 5-6: balance and concentration vs stride",
    build=_build,
    render=_render_artifact,
    uses_simulation=False,
))


if __name__ == "__main__":
    from repro.experiments.__main__ import main
    main(["stride_sweep", *sys.argv[1:]])
