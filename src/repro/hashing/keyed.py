"""Keyed (secret) indexing functions — the defense against hash cracking.

Every scheme in this package is *public*: an adversary who knows the
scheme can compute the key→set map offline and synthesize worst-case
traffic (see :mod:`repro.adversary`, which does exactly that through
the serving API).  The two functions here make the map depend on a
secret key so the only attack left is online probing — and the
:class:`~repro.control.KeyRotator` invalidates whatever the probing
learned by rotating the key through an epoch migration.

* :class:`KeyedMersenneIndexing` (``"keyed"``) — the classic
  ``h(x) = (a·x + b) mod p`` universal hash with ``p = 2^61 − 1`` a
  Mersenne prime, per "The Power of Hashing with Mersenne Primes"
  (PAPERS.md).  Reduction mod ``2^q − 1`` is two shift-adds, so the
  keyed path stays cheap; the vectorized path does the 122-bit product
  in uint64 pieces.  Like pMod it can drive an *exact prime* set count
  (``n_sets=`` a prime below the physical power of two), keeping the
  paper's Eq.1/Eq.2 guarantees on accidental traffic.
* :class:`KeyedDisplacementIndexing` (``"keyed_pdisp"``) — the paper's
  pDisp with the public displacement constant replaced by a secret odd
  61-bit multiplier.  Keeps pDisp's partial sequence invariance
  (Section 3 Property 2) because it is still ``(d·T + x) mod 2^b``
  with ``d`` odd — only now ``d`` is unguessable.

Both carry ``.key`` and ``rekeyed(key)`` so the store's
``RoutingTable`` can rotate secrets without knowing the scheme.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.hashing.base import IndexingFunction, register_indexing

#: Mersenne exponent: ``p = 2^61 − 1`` is prime and leaves 3 bits of
#: uint64 headroom for the shift-add reduction.
MERSENNE_EXPONENT = 61

#: The Mersenne prime modulus of the keyed hash.
MERSENNE_PRIME = (1 << MERSENNE_EXPONENT) - 1

#: Default secret for registry/factory construction (``make_indexing``
#: takes only a geometry).  A *deployed* defense must pass its own
#: key — a constant published in the repo is no secret.
DEFAULT_KEY = 0x9E3779B97F4A7C15

_M64 = (1 << 64) - 1
_LO31 = (1 << 31) - 1
_LO30 = (1 << 30) - 1


def derive_constants(key: int):
    """Map an arbitrary integer secret to hash constants ``(a, b)``.

    ``a`` is odd, nonzero, and ``< p − 1`` (``| 1`` after reducing mod
    the *even* ``p − 1`` can never reach ``p``); ``b`` is in ``[0, p)``.
    blake2b whitens the key so related secrets (``k``, ``k+1``) yield
    unrelated constants.
    """
    material = hashlib.blake2b(
        (key & ((1 << 128) - 1)).to_bytes(16, "little"),
        digest_size=16).digest()
    a = (int.from_bytes(material[:8], "little") % (MERSENNE_PRIME - 1)) | 1
    b = int.from_bytes(material[8:], "little") % MERSENNE_PRIME
    return a, b


def mersenne_fold(value: int) -> int:
    """``value mod 2^61 − 1`` via shift-add, for ``value < 2^122``."""
    p = MERSENNE_PRIME
    value = (value & p) + (value >> MERSENNE_EXPONENT)
    if value >= p:
        value = (value & p) + (value >> MERSENNE_EXPONENT)
    if value >= p:
        value -= p
    return value


def _fold61_array(values: np.ndarray) -> np.ndarray:
    """Elementwise ``v mod p`` for uint64 ``v`` (one fold suffices:
    ``(v & p) + (v >> 61) < 2^61 + 8``, then one conditional subtract)."""
    p = np.uint64(MERSENNE_PRIME)
    folded = (values & p) + (values >> np.uint64(MERSENNE_EXPONENT))
    return np.where(folded >= p, folded - p, folded)


def _mulmod61_array(multiplier: int, values: np.ndarray) -> np.ndarray:
    """``(multiplier · values) mod p`` without leaving uint64.

    Splits both operands at bit 31 so every partial product fits in 62
    bits, then folds the cross terms back with ``2^61 ≡ 1`` and
    ``2^62 ≡ 2 (mod p)``.  ``values`` must already be ``< p``.
    """
    a_hi = np.uint64(multiplier >> 31)
    a_lo = np.uint64(multiplier & _LO31)
    x_hi = values >> np.uint64(31)
    x_lo = values & np.uint64(_LO31)
    low = a_lo * x_lo                      # < 2^62
    mid = a_lo * x_hi + a_hi * x_lo        # < 2^62
    high = a_hi * x_hi                     # < 2^60
    # a·x = high·2^62 + mid·2^31 + low;  mid·2^31 = (mid >> 30)·2^61 +
    # (mid & (2^30−1))·2^31, and 2^61 ≡ 1, 2^62 ≡ 2 (mod p).  The four
    # terms sum below 2^63 + 2^32, so uint64 cannot wrap.
    total = (low
             + ((mid & np.uint64(_LO30)) << np.uint64(31))
             + (mid >> np.uint64(30))
             + np.uint64(2) * high)
    return _fold61_array(total)


@register_indexing("keyed")
class KeyedMersenneIndexing(IndexingFunction):
    """``H(a) = ((α·a + β) mod 2^61−1) mod n_set`` with secret ``α, β``.

    A strongly universal hash: without the key, any two addresses
    collide with probability ≈ ``1/n_set``, so the GF(2) linear solver
    the adversary uses on traditional/XOR finds no structure, and the
    statistical bucketing fallback learns only per-key facts the next
    rotation erases.  With ``n_sets=`` an exact prime the outer modulus
    keeps pMod's stride guarantees on legitimate traffic.
    """

    name = "keyed"

    def __init__(self, n_sets_physical: int, key: int = DEFAULT_KEY,
                 n_sets: int = None):
        super().__init__(n_sets_physical)
        if n_sets is None:
            n_sets = n_sets_physical
        if not 0 < n_sets <= n_sets_physical:
            raise ValueError(
                f"n_sets={n_sets} must be in (0, {n_sets_physical}]"
            )
        self.n_sets = n_sets
        self.key = int(key)
        self.multiplier, self.offset = derive_constants(self.key)

    def rekeyed(self, key: int) -> "KeyedMersenneIndexing":
        """Same geometry under a fresh secret."""
        return KeyedMersenneIndexing(self.n_sets_physical, key=key,
                                     n_sets=self.n_sets)

    def index(self, block_address: int) -> int:
        x = (block_address & _M64) % MERSENNE_PRIME
        h = mersenne_fold(self.multiplier * x + self.offset)
        return h % self.n_sets

    def index_array(self, block_addresses: np.ndarray) -> np.ndarray:
        a = np.asarray(block_addresses, dtype=np.uint64)
        x = _fold61_array(a)
        h = _mulmod61_array(self.multiplier, x) + np.uint64(self.offset)
        h = _fold61_array(h)
        return (h % np.uint64(self.n_sets)).astype(np.int64)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(n_sets_physical="
                f"{self.n_sets_physical}, n_sets={self.n_sets})")


@register_indexing("keyed_pdisp")
class KeyedDisplacementIndexing(IndexingFunction):
    """pDisp with a secret odd displacement: ``H(a) = (d·T + x) mod 2^b``.

    The same truncated multiply-add as
    :class:`~repro.hashing.prime_displacement.PrimeDisplacementIndexing`
    — one narrow multiplier in hardware — but ``d`` is a keyed 61-bit
    odd constant instead of the published 9.  Inherits pDisp's partial
    sequence invariance (any odd ``d`` is invertible mod ``2^b``), so
    Eq.2 concentration stays near-ideal on legitimate sequential
    traffic while the adversary's solver sees an unknown ``d``.
    """

    name = "keyed-pDisp"

    def __init__(self, n_sets_physical: int, key: int = DEFAULT_KEY):
        super().__init__(n_sets_physical)
        self.key = int(key)
        # derive_constants guarantees the multiplier is odd, which is
        # exactly the invertibility pDisp needs mod 2^b.
        self.displacement, _ = derive_constants(self.key)
        self._mask = n_sets_physical - 1

    def rekeyed(self, key: int) -> "KeyedDisplacementIndexing":
        """Same geometry under a fresh secret."""
        return KeyedDisplacementIndexing(self.n_sets_physical, key=key)

    def index(self, block_address: int) -> int:
        masked = block_address & _M64
        x = masked & self._mask
        tag = masked >> self.index_bits
        return (self.displacement * tag + x) & self._mask

    def index_array(self, block_addresses: np.ndarray) -> np.ndarray:
        a = np.asarray(block_addresses, dtype=np.uint64)
        mask = np.uint64(self._mask)
        x = a & mask
        tag = a >> np.uint64(self.index_bits)
        # uint64 wraparound only discards bits above the mask anyway.
        return ((np.uint64(self.displacement) * tag + x) & mask).astype(
            np.int64)
