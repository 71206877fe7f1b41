"""Deterministic building blocks for synthetic address streams.

The 23 workload models in :mod:`repro.workloads` are composed from
these primitives.  Every generator takes an explicit seed (where
randomness is involved) and returns plain numpy arrays of *byte*
addresses, so traces are reproducible run to run.
"""

from __future__ import annotations

import numpy as np


def strided_stream(
    base: int, stride_bytes: int, count: int, repeats: int = 1
) -> np.ndarray:
    """``repeats`` sequential sweeps of ``count`` strided addresses."""
    if count <= 0 or repeats <= 0:
        raise ValueError("count and repeats must be positive")
    sweep = np.uint64(base) + np.arange(count, dtype=np.uint64) * np.uint64(stride_bytes)
    return np.tile(sweep, repeats)


def pointer_chase(
    n_nodes: int,
    node_bytes: int,
    count: int,
    seed: int,
    base: int = 0,
    region_skew: float = 0.0,
) -> np.ndarray:
    """A pseudo-random pointer chase over heap-allocated nodes.

    ``region_skew`` in [0, 1) concentrates the chase onto a shrinking
    prefix of the node pool (hot allocation regions — the behavior that
    makes tree/mcf set-access histograms lopsided when node sizes are
    power-of-two multiples of the block size).
    """
    if n_nodes <= 0 or count <= 0:
        raise ValueError("n_nodes and count must be positive")
    if not 0.0 <= region_skew < 1.0:
        raise ValueError("region_skew must be in [0, 1)")
    rng = np.random.default_rng(seed)
    pool = max(1, int(n_nodes * (1.0 - region_skew)))
    nodes = rng.integers(0, pool, size=count, dtype=np.uint64)
    return np.uint64(base) + nodes * np.uint64(node_bytes)


def write_mask(n: int, write_fraction: float, seed: int) -> np.ndarray:
    """Deterministic boolean mask marking ~write_fraction of accesses."""
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError("write_fraction must be within [0, 1]")
    rng = np.random.default_rng(seed)
    return rng.random(n) < write_fraction
