"""Replacement policies for set-associative caches.

The paper's conventional caches use true LRU; the skewed associative
cache cannot implement LRU cheaply (Section 3.3) and uses pseudo-LRU
policies instead — those bank-selection policies live in
:mod:`repro.cache.skewed`.  Here are the per-set policies for
conventional caches: LRU, tree-PLRU, NRU, FIFO, and a deterministic
pseudo-random policy.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Type


class ReplacementPolicy(abc.ABC):
    """Per-set victim selection for a conventional W-way cache.

    The cache calls :meth:`on_hit`/:meth:`on_fill` to update recency
    state and :meth:`victim` only when the set is full.
    """

    def __init__(self, n_sets: int, assoc: int):
        if n_sets < 1 or assoc < 1:
            raise ValueError("need at least one set and one way")
        self.n_sets = n_sets
        self.assoc = assoc

    @abc.abstractmethod
    def on_hit(self, set_index: int, way: int) -> None:
        """Record a hit on ``way`` of ``set_index``."""

    @abc.abstractmethod
    def on_fill(self, set_index: int, way: int) -> None:
        """Record a fill (after miss) into ``way`` of ``set_index``."""

    @abc.abstractmethod
    def victim(self, set_index: int) -> int:
        """Way to evict from a full ``set_index``."""


class LRUPolicy(ReplacementPolicy):
    """True least-recently-used; what the paper's conventional L2 uses."""

    def __init__(self, n_sets: int, assoc: int):
        super().__init__(n_sets, assoc)
        # Most-recently-used way at the end of each list.
        self._order: List[List[int]] = [list(range(assoc)) for _ in range(n_sets)]

    def on_hit(self, set_index: int, way: int) -> None:
        order = self._order[set_index]
        if order[-1] != way:  # already the most recent: nothing moves
            order.remove(way)
            order.append(way)

    def on_fill(self, set_index: int, way: int) -> None:
        # A fill lands in the victim or an empty way, which is seldom
        # the most recent, so the check above would only cost here.
        order = self._order[set_index]
        order.remove(way)
        order.append(way)

    def victim(self, set_index: int) -> int:
        return self._order[set_index][0]


class TreePLRUPolicy(ReplacementPolicy):
    """Binary-tree pseudo-LRU (requires a power-of-two associativity)."""

    def __init__(self, n_sets: int, assoc: int):
        super().__init__(n_sets, assoc)
        if assoc & (assoc - 1):
            raise ValueError("tree-PLRU needs a power-of-two associativity")
        self._bits: List[List[int]] = [[0] * max(1, assoc - 1) for _ in range(n_sets)]

    def _touch(self, set_index: int, way: int) -> None:
        # Walk from root to the leaf for `way`, pointing each node away
        # from the path taken.
        bits = self._bits[set_index]
        node = 0
        span = self.assoc
        while span > 1:
            half = span // 2
            go_right = way >= half
            bits[node] = 0 if go_right else 1  # point away
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                way -= half
            span = half

    on_hit = _touch
    on_fill = _touch

    def victim(self, set_index: int) -> int:
        bits = self._bits[set_index]
        node = 0
        way = 0
        span = self.assoc
        while span > 1:
            half = span // 2
            go_right = bits[node] == 1
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                way += half
            span = half
        return way


class NRUPolicy(ReplacementPolicy):
    """Not-recently-used: one reference bit per line."""

    def __init__(self, n_sets: int, assoc: int):
        super().__init__(n_sets, assoc)
        self._ref: List[List[bool]] = [[False] * assoc for _ in range(n_sets)]

    def _mark(self, set_index: int, way: int) -> None:
        ref = self._ref[set_index]
        ref[way] = True
        if all(ref):
            # All referenced: clear everyone else, keep this one marked.
            for w in range(self.assoc):
                ref[w] = w == way

    on_hit = _mark
    on_fill = _mark

    def victim(self, set_index: int) -> int:
        ref = self._ref[set_index]
        for way, marked in enumerate(ref):
            if not marked:
                return way
        return 0  # unreachable given _mark's invariant; defensive


class FIFOPolicy(ReplacementPolicy):
    """First-in first-out; ignores hits entirely."""

    def __init__(self, n_sets: int, assoc: int):
        super().__init__(n_sets, assoc)
        self._next: List[int] = [0] * n_sets

    def on_hit(self, set_index: int, way: int) -> None:
        pass

    def on_fill(self, set_index: int, way: int) -> None:
        if way == self._next[set_index]:
            self._next[set_index] = (way + 1) % self.assoc

    def victim(self, set_index: int) -> int:
        return self._next[set_index]


class RandomPolicy(ReplacementPolicy):
    """Deterministic pseudo-random victim (xorshift, fixed seed)."""

    def __init__(self, n_sets: int, assoc: int, seed: int = 0x9E3779B9):
        super().__init__(n_sets, assoc)
        self._state = seed or 1

    def on_hit(self, set_index: int, way: int) -> None:
        pass

    def on_fill(self, set_index: int, way: int) -> None:
        pass

    def victim(self, set_index: int) -> int:
        s = self._state
        s ^= (s << 13) & 0xFFFFFFFF
        s ^= s >> 17
        s ^= (s << 5) & 0xFFFFFFFF
        self._state = s
        return s % self.assoc


_POLICIES: Dict[str, Type[ReplacementPolicy]] = {
    "lru": LRUPolicy,
    "plru": TreePLRUPolicy,
    "nru": NRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
}


def make_replacement(key: str, n_sets: int, assoc: int) -> ReplacementPolicy:
    """Instantiate a replacement policy by key (lru/plru/nru/fifo/random)."""
    try:
        cls = _POLICIES[key]
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise KeyError(f"unknown replacement {key!r}; known: {known}") from None
    return cls(n_sets, assoc)
