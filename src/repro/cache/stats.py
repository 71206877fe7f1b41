"""Cache statistics shared by all cache models.

Per-set counters back two paper analyses: the uniformity classification
of Section 4 (stdev/mean of per-set *accesses*) and the miss
distribution of Figure 13 (per-set *misses*).
"""

from __future__ import annotations

import numpy as np


class CacheStats:
    """Counters for one cache: totals plus per-set access/miss counts.

    The caches bump the per-set counts in ``set_access_counts`` and
    ``set_miss_counts``, Python int lists, because a list slot costs a
    fraction of a numpy element written from Python; ``set_accesses``
    and ``set_misses`` read them as int64 arrays.
    """

    def __init__(self, n_sets: int):
        self.n_sets = n_sets
        self.reads = 0
        self.writes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.set_access_counts = [0] * n_sets
        self.set_miss_counts = [0] * n_sets

    @property
    def set_accesses(self) -> np.ndarray:
        """Accesses per set, as a new int64 array."""
        return np.array(self.set_access_counts, dtype=np.int64)

    @property
    def set_misses(self) -> np.ndarray:
        """Misses per set, as a new int64 array."""
        return np.array(self.set_miss_counts, dtype=np.int64)

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Zero every counter (e.g. after a warm-up phase)."""
        self.reads = self.writes = 0
        self.hits = self.misses = 0
        self.evictions = self.writebacks = 0
        self.set_access_counts = [0] * self.n_sets
        self.set_miss_counts = [0] * self.n_sets

    def __repr__(self) -> str:
        return (
            f"CacheStats(accesses={self.accesses}, hits={self.hits}, "
            f"misses={self.misses}, miss_rate={self.miss_rate:.4f})"
        )
