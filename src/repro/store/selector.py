"""Key→shard routing built from the paper's indexing functions.

A :class:`ShardSelector` wraps any :class:`~repro.hashing.base.
IndexingFunction` and routes store keys to shards exactly the way the
paper routes block addresses to cache sets.  The selector duck-types
the analysis surface of an indexing function (``index`` /
``index_array`` / ``n_sets`` / ``n_sets_physical``), so every metric in
:mod:`repro.hashing.analysis` — balance, concentration, sequence
invariance — accepts a selector unchanged.

Schemes (:data:`STORE_SCHEMES`):

* ``traditional`` — low bits of the key (power-of-two modulo).
* ``xor`` — tag-xor-index pseudo-random routing.
* ``pmod`` — modulo the largest prime below the shard count
  (:func:`repro.mathutil.largest_prime_below`); the pMod adapter.
* ``pdisp`` / ``pdisp19`` / ``pdisp31`` / ``pdisp37`` — prime
  displacement with the paper's p = 9 / 19 / 31 / 37 constants.
* ``keyed`` / ``keyed_pdisp`` — secret-keyed Mersenne-prime hashing and
  keyed prime displacement (:mod:`repro.hashing.keyed`), the defense
  against the black-box hash-cracking adversary; rotate the secret
  with :meth:`ShardSelector.rekeyed`.

Non-integer keys (str / bytes) are first folded to a stable 64-bit
integer with blake2b, so structured integer key streams keep their
structure (the whole point of the analysis) while arbitrary object keys
still route deterministically.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Union

import numpy as np

from repro.hashing import (
    IndexingFunction,
    KeyedDisplacementIndexing,
    KeyedMersenneIndexing,
    PrimeDisplacementIndexing,
    PrimeModuloIndexing,
    TraditionalIndexing,
    XorIndexing,
)
from repro.mathutil import is_power_of_two, is_prime

#: Keys a store accepts.
StoreKey = Union[int, str, bytes]

_KEY_MASK = (1 << 64) - 1


def canonical_key(key: StoreKey) -> int:
    """Fold a store key to the 64-bit integer the selector hashes.

    Integers pass through (masked to 64 bits, so negative keys are
    well-defined); str/bytes are digested with blake2b, which is stable
    across processes — unlike the builtin ``hash``.  A plain ``int``,
    the key every layer below the first passes on, is tested first.
    """
    if type(key) is int:
        return key & _KEY_MASK
    if isinstance(key, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("bool is not a valid store key")
    if isinstance(key, int):
        return key & _KEY_MASK
    if isinstance(key, str):
        key = key.encode()
    if isinstance(key, bytes):
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "little")
    raise TypeError(f"unsupported store key type: {type(key).__name__}")


class ShardSelector:
    """Routes store keys to shards through one indexing function.

    Attributes:
        indexing: the wrapped :class:`IndexingFunction`.
        scheme: the registry key this selector was built from.
        n_shards: number of *usable* shards (= ``indexing.n_sets``;
            below the physical count for pMod).
    """

    def __init__(self, indexing: IndexingFunction, scheme: str = None):
        self.indexing = indexing
        self.scheme = scheme or indexing.name
        self.name = indexing.name

    # -- routing -------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self.indexing.n_sets

    @property
    def n_shards_physical(self) -> int:
        return self.indexing.n_sets_physical

    def shard(self, key: StoreKey) -> int:
        """Shard id for one key."""
        return self.indexing.index(canonical_key(key))

    def shard_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized routing of an integer key batch (the hot path)."""
        return self.indexing.index_array(np.asarray(keys, dtype=np.uint64))

    # -- repro.hashing.analysis compatibility --------------------------

    @property
    def n_sets(self) -> int:
        return self.indexing.n_sets

    @property
    def n_sets_physical(self) -> int:
        return self.indexing.n_sets_physical

    def index(self, block_address: int) -> int:
        return self.indexing.index(block_address)

    def index_array(self, block_addresses: np.ndarray) -> np.ndarray:
        return self.indexing.index_array(block_addresses)

    # -- keyed schemes --------------------------------------------------

    @property
    def key(self):
        """The secret key, or ``None`` for unkeyed schemes."""
        return getattr(self.indexing, "key", None)

    def rekeyed(self, key: int) -> "ShardSelector":
        """A selector over the same geometry under a fresh secret.

        Raises :class:`ValueError` for unkeyed schemes — rotating a
        public hash would silently provide no defense.
        """
        rekey = getattr(self.indexing, "rekeyed", None)
        if rekey is None:
            raise ValueError(
                f"scheme {self.scheme!r} is not keyed; only keyed "
                f"schemes can rotate secrets")
        return ShardSelector(rekey(int(key)), scheme=self.scheme)

    def __repr__(self) -> str:
        return (f"ShardSelector(scheme={self.scheme!r}, "
                f"n_shards={self.n_shards}/{self.n_shards_physical})")


def _pdisp_factory(displacement: int) -> Callable[[int], IndexingFunction]:
    def build(n_shards_physical: int) -> IndexingFunction:
        return PrimeDisplacementIndexing(n_shards_physical,
                                         displacement=displacement)

    return build


#: scheme key -> IndexingFunction factory taking the physical shard count.
STORE_SCHEMES: Dict[str, Callable[[int], IndexingFunction]] = {
    "traditional": TraditionalIndexing,
    "xor": XorIndexing,
    "pmod": PrimeModuloIndexing,
    "pdisp": _pdisp_factory(9),
    "pdisp19": _pdisp_factory(19),
    "pdisp31": _pdisp_factory(31),
    "pdisp37": _pdisp_factory(37),
    "keyed": KeyedMersenneIndexing,
    "keyed_pdisp": KeyedDisplacementIndexing,
}


def make_selector(scheme: str, n_shards_physical: int) -> ShardSelector:
    """Build a selector by scheme key over a power-of-two shard count.

    ``pmod`` selects :func:`~repro.mathutil.largest_prime_below` the
    physical count as its usable shard count, exactly as the paper's L2
    does with its set count.
    """
    try:
        factory = STORE_SCHEMES[scheme]
    except KeyError:
        known = ", ".join(sorted(STORE_SCHEMES))
        raise KeyError(f"unknown store scheme {scheme!r}; known: {known}") from None
    return ShardSelector(factory(n_shards_physical), scheme=scheme)


def make_selector_exact(scheme: str, n_shards: int) -> ShardSelector:
    """Build a selector whose *usable* shard count is exactly ``n_shards``.

    This is the construction path for runtime resizes along the prime
    ladder: ``pmod`` accepts any prime count directly (61, 67, 127, ...)
    by pairing it with the smallest covering power-of-two physical count,
    so ``next_prime``/``prev_prime`` moves land on exactly the requested
    shard count.  Every other scheme — and ``pmod`` given a power of two,
    which keeps :func:`make_selector`'s classic largest-prime-below
    behavior — requires a power-of-two count, because their index math is
    bit-mask based.
    """
    if n_shards < 2:
        raise ValueError(f"need at least 2 shards, got {n_shards}")
    if scheme in ("pmod", "keyed") and not is_power_of_two(n_shards):
        if not is_prime(n_shards):
            raise ValueError(
                f"{scheme} shard count must be prime (or a power of two "
                f"for the power-of-two fallback), got {n_shards}"
            )
        physical = 1 << n_shards.bit_length()
        if scheme == "keyed":
            return ShardSelector(
                KeyedMersenneIndexing(physical, n_sets=n_shards),
                scheme="keyed")
        return ShardSelector(
            PrimeModuloIndexing(physical, n_sets=n_shards), scheme="pmod")
    if not is_power_of_two(n_shards):
        raise ValueError(
            f"scheme {scheme!r} needs a power-of-two shard count, "
            f"got {n_shards}"
        )
    return make_selector(scheme, n_shards)


def available_selectors() -> List[str]:
    """Registered store scheme keys, sorted."""
    return sorted(STORE_SCHEMES)
