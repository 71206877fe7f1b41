"""Key→shard routing: epoch-versioned tables over the paper's indexing
functions, and the prime shard-count ladder.

A :class:`RoutingTable` routes store keys to shards exactly the way the
paper routes block addresses to cache sets, through one
:class:`~repro.hashing.base.IndexingFunction` (its ``indexing`` field,
which every metric in :mod:`repro.hashing.analysis` accepts).  It is one
*immutable* generation of the key→shard mapping: ``(scheme, n_shards,
epoch_id)`` plus the set of quarantined shards routed around.  Mutating
the mapping — resizing along the prime ladder, swapping schemes,
rotating a secret, quarantining a stalled shard — never edits a table;
it derives a successor with ``epoch_id + 1``.  That versioning is what
makes online resharding safe: a :class:`~repro.store.engine.
ShardedStore` can hold the *new* table next to the *old* one during
migration (reads consult new-then-old, writes land on the new epoch),
and the serving layer can detect "the routing I bound my batch queues
to is stale" with one integer comparison.

Schemes (:data:`STORE_SCHEMES`, the hashing registry's entries for the
store's keys):

* ``traditional`` — low bits of the key (power-of-two modulo).
* ``xor`` — tag-xor-index pseudo-random routing.
* ``pmod`` — modulo the largest prime below a power-of-two shard count,
  or exactly a prime shard count; the pMod adapter.
* ``pdisp`` — prime displacement with the paper's p = 9.
* ``keyed`` / ``keyed_pdisp`` — secret-keyed Mersenne-prime hashing and
  keyed prime displacement (:mod:`repro.hashing.keyed`), the defense
  against the black-box hash-cracking adversary; rotate the secret
  with :meth:`RoutingTable.rekeyed`.

Non-integer keys (str / bytes) are first folded to a stable 64-bit
integer by :func:`canonical_key`, so structured integer key streams keep
their structure (the whole point of the analysis) while arbitrary
object keys still route deterministically.

The **ladder** functions keep resizes on the shard counts the paper's
argument needs: ``pmod`` moves prime→prime through
:func:`repro.mathutil.next_prime` / :func:`repro.mathutil.prev_prime`
(61 → 67 → 71 ...), while the bit-mask schemes (traditional, XOR,
pDisp) move power-of-two→power-of-two — each scheme grows along the
count geometry its index math requires.

Quarantined shards are re-routed deterministically: a key whose primary
shard is quarantined walks ``(primary + 1, primary + 2, ...) mod
n_shards`` to the first healthy shard, so re-routing is stable across
processes and cheap to vectorize (quarantine is the rare case; the fast
path is untouched while the quarantine set is empty).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, Iterable, List, Union

import numpy as np

from repro.hashing import INDEXINGS, IndexingFunction
from repro.mathutil import is_power_of_two, is_prime, next_prime, prev_prime

__all__ = [
    "STORE_SCHEMES",
    "RoutingTable",
    "StoreKey",
    "canonical_key",
    "ladder_down",
    "ladder_up",
    "make_selector",
    "normalize_shard_count",
    "prime_capable",
]

#: Keys a store accepts.
StoreKey = Union[int, str, bytes]

_KEY_MASK = (1 << 64) - 1

#: scheme key -> the hashing registry's factory for it (physical shard
#: count -> :class:`IndexingFunction`).
STORE_SCHEMES: Dict[str, Callable[..., IndexingFunction]] = {
    scheme: INDEXINGS[scheme]
    for scheme in ("traditional", "xor", "pmod", "pdisp", "keyed",
                   "keyed_pdisp")
}


def canonical_key(key: StoreKey) -> int:
    """Fold a store key to the 64-bit integer a table hashes.

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


def prime_capable(scheme: str) -> bool:
    """Whether ``scheme`` routes over arbitrary prime shard counts.

    ``pmod`` is a plain modulo and ``keyed`` ends in one, so any prime
    works; the other schemes mask/XOR index bits and need a power of
    two.
    """
    return scheme in ("pmod", "keyed")


def normalize_shard_count(scheme: str, n_shards: int) -> int:
    """Snap ``n_shards`` onto ``scheme``'s ladder (never downward).

    Prime-capable schemes get the smallest prime >= the request;
    power-of-two schemes the smallest covering power of two.  A count
    already on the ladder passes through unchanged.
    """
    if n_shards < 2:
        raise ValueError(f"need at least 2 shards, got {n_shards}")
    if prime_capable(scheme):
        return n_shards if is_prime(n_shards) else next_prime(n_shards)
    if is_power_of_two(n_shards):
        return n_shards
    return 1 << n_shards.bit_length()


def ladder_up(scheme: str, n_shards: int) -> int:
    """The next rung above ``n_shards`` on ``scheme``'s ladder."""
    if prime_capable(scheme):
        return next_prime(n_shards)
    return max(2, 1 << n_shards.bit_length())


def ladder_down(scheme: str, n_shards: int) -> int:
    """The rung below ``n_shards``; raises ValueError at the bottom."""
    if prime_capable(scheme):
        down = prev_prime(n_shards)
        if down < 2:  # pragma: no cover - prev_prime never returns < 2
            raise ValueError(f"no ladder rung below {n_shards}")
        return down
    if n_shards <= 2:
        raise ValueError(f"no ladder rung below {n_shards} shards")
    return 1 << (n_shards - 1).bit_length() - 1


@dataclass(frozen=True)
class RoutingTable:
    """One immutable epoch of key→shard routing.

    Attributes:
        scheme: shard-selection scheme key (:data:`STORE_SCHEMES`).
        epoch_id: monotonically increasing generation number; every
            derived table (resize, scheme swap, rekey, quarantine
            change) increments it.
        indexing: the :class:`IndexingFunction` doing the hashing; its
            ``n_sets`` is the usable shard count (below the physical
            count for pMod over a power of two).
        quarantined: shard ids routed *around* — keys whose primary
            shard is quarantined probe linearly to the next healthy
            shard.
        route: ``route(canonical) -> shard id`` for a key already
            folded by :func:`canonical_key`.  It is the bound
            ``indexing.index`` while nothing is quarantined and the
            bound :meth:`_route_around` otherwise (a bound method,
            unlike a closure, pickles and copies).
    """

    scheme: str
    epoch_id: int
    indexing: IndexingFunction
    quarantined: FrozenSet[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.epoch_id < 0:
            raise ValueError("epoch_id must be >= 0")
        bad = [s for s in self.quarantined
               if not 0 <= s < self.n_shards]
        if bad:
            raise ValueError(
                f"quarantined shards {sorted(bad)} outside "
                f"[0, {self.n_shards})")
        if len(self.quarantined) >= self.n_shards:
            raise ValueError("cannot quarantine every shard")
        object.__setattr__(self, "route", (
            self._route_around if self.quarantined
            else self.indexing.index))

    # -- construction ---------------------------------------------------

    @classmethod
    def create(cls, scheme: str, n_shards: int,
               epoch_id: int = 0) -> "RoutingTable":
        """Epoch-``epoch_id`` table for ``scheme`` over ``n_shards``.

        A power-of-two count is the physical shard count (``pmod`` then
        uses the largest prime below it, the paper's construction).  A
        prime-capable scheme also takes a prime count exactly, over the
        smallest covering power of two, so ladder moves land on exactly
        the requested count.  Any other count is refused.
        """
        try:
            factory = STORE_SCHEMES[scheme]
        except KeyError:
            known = ", ".join(sorted(STORE_SCHEMES))
            raise KeyError(
                f"unknown store scheme {scheme!r}; known: {known}") from None
        if n_shards < 2:
            raise ValueError(f"need at least 2 shards, got {n_shards}")
        if is_power_of_two(n_shards):
            return cls(scheme, epoch_id, factory(n_shards))
        if prime_capable(scheme) and is_prime(n_shards):
            return cls(scheme, epoch_id,
                       factory(1 << n_shards.bit_length(), n_sets=n_shards))
        counts = ("a power-of-two or prime" if prime_capable(scheme)
                  else "a power-of-two")
        raise ValueError(f"scheme {scheme!r} needs {counts} shard count, "
                         f"got {n_shards}")

    # -- derivation (always a new epoch) --------------------------------

    def resized(self, n_shards: int) -> "RoutingTable":
        """Successor table over ``n_shards`` (quarantine cleared: the
        new epoch gets a fresh shard fleet)."""
        return RoutingTable.create(self.scheme, n_shards, self.epoch_id + 1)

    def reschemed(self, scheme: str, n_shards: int = None) -> "RoutingTable":
        """Successor table under a different scheme (same target count
        unless overridden; the count is re-normalized onto the new
        scheme's ladder)."""
        target = normalize_shard_count(
            scheme, n_shards if n_shards is not None else self.n_shards)
        return RoutingTable.create(scheme, target, self.epoch_id + 1)

    def rekeyed(self, key: int) -> "RoutingTable":
        """Successor table under a fresh secret (keyed schemes only).

        Same scheme and shard count — only the secret changes, so the
        key→shard map is scrambled while capacity stays put.  Like
        :meth:`resized`, the quarantine set is cleared: the new epoch
        gets a fresh fleet and re-routes from scratch.  Raises
        :class:`ValueError` for unkeyed schemes — rotating a public
        hash would silently provide no defense.
        """
        rekey = getattr(self.indexing, "rekeyed", None)
        if rekey is None:
            raise ValueError(
                f"scheme {self.scheme!r} is not keyed; only keyed "
                f"schemes can rotate secrets")
        return RoutingTable(self.scheme, self.epoch_id + 1, rekey(int(key)))

    def with_quarantined(self, shard_ids: Iterable[int]) -> "RoutingTable":
        """Successor table with ``shard_ids`` added to the quarantine
        set (same indexing — quarantine re-routes, it does not
        rehash)."""
        merged = frozenset(self.quarantined) | frozenset(
            int(s) for s in shard_ids)
        if merged == self.quarantined:
            return self
        return replace(self, epoch_id=self.epoch_id + 1, quarantined=merged)

    def without_quarantined(self,
                            shard_ids: Iterable[int] = None) -> "RoutingTable":
        """Successor table healing some (default: all) quarantined
        shards."""
        if shard_ids is None:
            healed: FrozenSet[int] = frozenset()
        else:
            healed = frozenset(self.quarantined) - frozenset(
                int(s) for s in shard_ids)
        if healed == self.quarantined:
            return self
        return replace(self, epoch_id=self.epoch_id + 1, quarantined=healed)

    def grown(self) -> "RoutingTable":
        """Successor one ladder rung up (prime ladder for pmod)."""
        return self.resized(ladder_up(self.scheme, self.n_shards))

    def shrunk(self) -> "RoutingTable":
        """Successor one ladder rung down."""
        return self.resized(ladder_down(self.scheme, self.n_shards))

    # -- routing --------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self.indexing.n_sets

    @property
    def n_shards_physical(self) -> int:
        return self.indexing.n_sets_physical

    def _reroute(self, primary: int) -> int:
        """First healthy shard on the probe walk from ``primary``."""
        shard = primary
        for _ in range(self.n_shards):
            if shard not in self.quarantined:
                return shard
            shard = (shard + 1) % self.n_shards
        raise RuntimeError(  # pragma: no cover - guarded in __post_init__
            "all shards quarantined")

    def _route_around(self, canonical: int) -> int:
        """:attr:`route` under quarantine: hash, then probe."""
        return self._reroute(self.indexing.index(canonical))

    def shard(self, key: StoreKey) -> int:
        """Shard id ``key`` routes to under this epoch."""
        return self.route(canonical_key(key))

    def shard_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized routing of an integer key batch; quarantine fixup
        applies only to the (rare) keys whose primary shard is
        quarantined."""
        primaries = self.indexing.index_array(
            np.asarray(keys, dtype=np.uint64))
        if not self.quarantined:
            return primaries
        out = primaries.copy()
        hit = np.isin(out, np.fromiter(self.quarantined, dtype=np.int64))
        for i in np.flatnonzero(hit):
            out[i] = self._reroute(int(out[i]))
        return out

    def healthy_shards(self) -> List[int]:
        """Shard ids currently receiving traffic."""
        return [s for s in range(self.n_shards)
                if s not in self.quarantined]

    def describe(self) -> dict:
        """JSON-friendly summary (journal / artifact payloads)."""
        return {
            "scheme": self.scheme,
            "epoch_id": self.epoch_id,
            "n_shards": self.n_shards,
            "n_shards_physical": self.n_shards_physical,
            "quarantined": sorted(self.quarantined),
        }

    def __repr__(self) -> str:
        quarantine = (f", quarantined={sorted(self.quarantined)}"
                      if self.quarantined else "")
        return (f"RoutingTable(scheme={self.scheme!r}, "
                f"epoch={self.epoch_id}, n_shards={self.n_shards}"
                f"{quarantine})")


def make_selector(scheme: str, n_shards: int) -> RoutingTable:
    """:meth:`RoutingTable.create` under the name the benchmark suite's
    layer ladder times (``.shard`` over ``.indexing.index``)."""
    return RoutingTable.create(scheme, n_shards)
