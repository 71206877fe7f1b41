"""Indexing-function interfaces.

An :class:`IndexingFunction` maps a *block address* (the memory address
already shifted right by the block-offset bits) to a cache set index.
Implementations provide both a scalar path, used by the cycle-level
cache simulator, and a vectorized numpy path, used by the stride sweeps
of Figures 5 and 6 where millions of addresses are hashed at once.

A :class:`BankIndexingFamily` is the multi-hash analogue used by skewed
associative caches: one indexing function per direct-mapped bank.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Type

import numpy as np

from repro.mathutil import is_power_of_two, log2_exact


class IndexingFunction(abc.ABC):
    """Maps block addresses to set indices of a single-hash cache.

    Attributes:
        name: short identifier used in reports (e.g. ``"pMod"``).
        n_sets_physical: the power-of-two number of physical sets.
        n_sets: the number of *usable* sets (< physical for prime modulo).
        index_bits: log2 of the physical set count.
    """

    name: str = "abstract"

    def __init__(self, n_sets_physical: int):
        if not is_power_of_two(n_sets_physical):
            raise ValueError(
                f"physical set count must be a power of two, got {n_sets_physical}"
            )
        self.n_sets_physical = n_sets_physical
        self.index_bits = log2_exact(n_sets_physical)
        self.n_sets = n_sets_physical  # subclasses may shrink this

    @abc.abstractmethod
    def index(self, block_address: int) -> int:
        """Set index for one block address."""

    def index_array(self, block_addresses: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`index`; default falls back to the scalar path."""
        return np.fromiter(
            (self.index(int(a)) for a in block_addresses),
            dtype=np.int64,
            count=len(block_addresses),
        )

    @property
    def fragmentation(self) -> float:
        """Fraction of physical sets this function never uses."""
        return (self.n_sets_physical - self.n_sets) / self.n_sets_physical

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_sets_physical={self.n_sets_physical})"


class BankIndexingFamily(abc.ABC):
    """One indexing function per bank of a skewed associative cache."""

    name: str = "abstract-family"

    def __init__(self, n_sets_per_bank: int, n_banks: int):
        if not is_power_of_two(n_sets_per_bank):
            raise ValueError(
                f"per-bank set count must be a power of two, got {n_sets_per_bank}"
            )
        if n_banks < 2:
            raise ValueError("a skewed cache needs at least 2 banks")
        self.n_sets_per_bank = n_sets_per_bank
        self.index_bits = log2_exact(n_sets_per_bank)
        self.n_banks = n_banks

    @abc.abstractmethod
    def bank_index(self, bank: int, block_address: int) -> int:
        """Set index within ``bank`` for one block address."""

    def indices(self, block_address: int) -> List[int]:
        """Set index in every bank, in bank order."""
        return [self.bank_index(b, block_address) for b in range(self.n_banks)]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n_sets_per_bank={self.n_sets_per_bank}, "
            f"n_banks={self.n_banks})"
        )


#: Registry key -> the :class:`IndexingFunction` class registered under
#: it (called with the physical set count).  The store's scheme table
#: (:data:`repro.store.routing.STORE_SCHEMES`) is a subset of it.
INDEXINGS: Dict[str, Callable[[int], IndexingFunction]] = {}


def register_indexing(key: str) -> Callable[[Type[IndexingFunction]], Type[IndexingFunction]]:
    """Class decorator registering an indexing function under ``key``."""

    def decorator(cls: Type[IndexingFunction]) -> Type[IndexingFunction]:
        INDEXINGS[key] = cls
        return cls

    return decorator


def make_indexing(key: str, n_sets_physical: int) -> IndexingFunction:
    """Instantiate a registered indexing function by key
    (:func:`available_indexings`)."""
    try:
        factory = INDEXINGS[key]
    except KeyError:
        known = ", ".join(sorted(INDEXINGS))
        raise KeyError(f"unknown indexing {key!r}; known: {known}") from None
    return factory(n_sets_physical)


def available_indexings() -> List[str]:
    """Registered indexing keys, sorted."""
    return sorted(INDEXINGS)
