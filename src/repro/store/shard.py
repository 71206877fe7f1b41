"""One store shard: a capacity-bounded set-associative object segment.

A shard stores real key→value entries the way a cache stores blocks:
``capacity // assoc`` sets of ``assoc`` ways each, with victims chosen
by any :mod:`repro.cache.replacement` policy (LRU by default, exactly
the paper's conventional-cache policy).  When a full set receives a new
key, the policy's victim entry is evicted — the store is a *cache*, not
a database, and surfaces the eviction to the caller.

Intra-shard set placement uses a splitmix64 finalizer over the key, not
the raw key bits: the shard-*selection* scheme is the object of study,
the internal layout is not, and reusing the raw bits would let the
router's structure alias into every shard's sets.

Each shard owns one :class:`threading.Lock`, its only lock.  Every
entry point that reads or writes the ways takes it: the per-op methods
(``get``, ``put``, ``delete``, ``contains``) with ``lock.acquire()`` and
a ``finally: lock.release()``, ``items`` with a ``with`` block.  So a
:class:`~repro.store.engine.ShardedStore` is safe under the concurrent
replay driver with no global lock.
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional, Tuple

from repro.cache.replacement import ReplacementPolicy, make_replacement

_M64 = (1 << 64) - 1

#: Sentinel for "no entry" distinct from None-as-a-stored-value.
_EMPTY = object()


def mix64(key: int) -> int:
    """splitmix64 finalizer; decorrelates intra-shard placement from
    the shard-selection hash."""
    z = (key + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)  # both operands < 2**64, so no final mask


class ShardStats:
    """Counters for one shard."""

    __slots__ = ("gets", "puts", "deletes", "hits", "misses", "evictions")

    def __init__(self) -> None:
        self.gets = 0
        self.puts = 0
        self.deletes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def accesses(self) -> int:
        return self.gets + self.puts + self.deletes

    @property
    def hit_rate(self) -> float:
        return self.hits / self.gets if self.gets else 0.0

    def snapshot(self) -> dict:
        return {
            "gets": self.gets, "puts": self.puts, "deletes": self.deletes,
            "hits": self.hits, "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return (f"ShardStats(accesses={self.accesses}, hits={self.hits}, "
                f"misses={self.misses}, evictions={self.evictions})")


class Shard:
    """Set-associative key→value segment bounded at ``capacity`` entries.

    ``lock`` serializes every op on this shard, taken with
    ``acquire()`` and released in a ``finally``, so it is free again on
    every exit from an op, a policy that raises included.

    Args:
        capacity: maximum live entries (rounded down to a multiple of
            ``assoc``, minimum one set).
        assoc: ways per set.
        replacement: :func:`repro.cache.replacement.make_replacement`
            policy key (lru / plru / nru / fifo / random).
        shard_id: this shard's index, for reports.
    """

    def __init__(self, capacity: int, assoc: int = 8,
                 replacement: str = "lru", shard_id: int = 0):
        if capacity < 1 or assoc < 1:
            raise ValueError("capacity and assoc must be positive")
        self.shard_id = shard_id
        self.assoc = min(assoc, capacity)
        self.n_sets = max(1, capacity // self.assoc)
        self.capacity = self.n_sets * self.assoc
        self._keys: List[List[Optional[int]]] = [
            [None] * self.assoc for _ in range(self.n_sets)
        ]
        self._values: List[List[Any]] = [
            [_EMPTY] * self.assoc for _ in range(self.n_sets)
        ]
        self.policy: ReplacementPolicy = make_replacement(
            replacement, self.n_sets, self.assoc
        )
        # Bound once: the per-op methods call these on every hit or fill.
        self._on_hit = self.policy.on_hit
        self._on_fill = self.policy.on_fill
        self._victim = self.policy.victim
        self.stats = ShardStats()
        self.occupancy = 0
        self.lock = threading.Lock()

    # -- operations (thread-safe: each takes the shard lock) -----------
    #
    # The lock is taken with acquire() and released in a `finally`, not
    # with a `with` block: on CPython the context-manager protocol costs
    # about twice the explicit pair on every op.

    def get(self, key: int, default: Any = None) -> Any:
        """Value stored under ``key``, or ``default`` on miss."""
        set_index = mix64(key) % self.n_sets
        lock = self.lock
        lock.acquire()
        try:
            stats = self.stats
            stats.gets += 1
            ways = self._keys[set_index]
            if key in ways:
                way = ways.index(key)
                stats.hits += 1
                self._on_hit(set_index, way)
                return self._values[set_index][way]
            stats.misses += 1
            return default
        finally:
            lock.release()

    def put(self, key: int, value: Any) -> Optional[int]:
        """Insert or update ``key``; returns the evicted key, if any."""
        set_index = mix64(key) % self.n_sets
        lock = self.lock
        lock.acquire()
        try:
            stats = self.stats
            stats.puts += 1
            ways = self._keys[set_index]
            values = self._values[set_index]
            if key in ways:  # update in place
                way = ways.index(key)
                stats.hits += 1
                values[way] = value
                self._on_hit(set_index, way)
                return None
            stats.misses += 1
            evicted = None
            if None in ways:
                way = ways.index(None)
            else:
                way = self._victim(set_index)
                evicted = ways[way]
                stats.evictions += 1
                self.occupancy -= 1
            ways[way] = key
            values[way] = value
            self.occupancy += 1
            self._on_fill(set_index, way)
            return evicted
        finally:
            lock.release()

    def delete(self, key: int) -> bool:
        """Drop ``key`` if present; returns whether it was stored."""
        set_index = mix64(key) % self.n_sets
        lock = self.lock
        lock.acquire()
        try:
            stats = self.stats
            stats.deletes += 1
            ways = self._keys[set_index]
            if key in ways:
                way = ways.index(key)
                stats.hits += 1
                ways[way] = None
                self._values[set_index][way] = _EMPTY
                self.occupancy -= 1
                return True
            stats.misses += 1
            return False
        finally:
            lock.release()

    def contains(self, key: int) -> bool:
        """True when ``key`` is stored (no stats or recency change)."""
        set_index = mix64(key) % self.n_sets
        lock = self.lock
        lock.acquire()
        try:
            return key in self._keys[set_index]
        finally:
            lock.release()

    def __len__(self) -> int:
        return self.occupancy

    def items(self) -> List[Tuple[int, Any]]:
        """All live (key, value) pairs (for tests and debugging)."""
        with self.lock:
            return [
                (k, v)
                for key_row, value_row in zip(self._keys, self._values)
                for k, v in zip(key_row, value_row)
                if k is not None
            ]

    def __repr__(self) -> str:
        return (f"Shard(id={self.shard_id}, capacity={self.capacity}, "
                f"assoc={self.assoc}, occupancy={self.occupancy})")
