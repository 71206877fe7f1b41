"""Scalar vs numpy-vectorized agreement for every registered scheme.

The store's hot path (and the Figure 5/6 sweeps) run exclusively on
``index_array``; the cache models run exclusively on scalar ``index``.
This property test pins the two paths together for *every* registered
indexing function, across geometries, on randomized address batches
with fixed seeds — so a vectorization bug in any scheme fails loudly
instead of skewing a figure.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing import (
    KeyedDisplacementIndexing,
    KeyedMersenneIndexing,
    PrimeModuloIndexing,
    available_indexings,
    make_indexing,
)
from repro.mathutil import primes_below

GEOMETRIES = (16, 256, 2048, 8192)
SEEDS = (0, 7, 1234)

# gf2 precomputes one XOR column per address bit (default 32), so the
# shared address space for the cross-scheme sweep is 32-bit.
MAX_ADDRESS = 2**32 - 1


@pytest.mark.parametrize("key", available_indexings())
@pytest.mark.parametrize("n_sets_physical", GEOMETRIES)
def test_vectorized_matches_scalar_on_random_batches(key, n_sets_physical):
    indexing = make_indexing(key, n_sets_physical)
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, MAX_ADDRESS, size=2048, dtype=np.uint64)
        vectorized = indexing.index_array(addrs)
        scalar = np.fromiter((indexing.index(int(a)) for a in addrs),
                             dtype=np.int64, count=len(addrs))
        assert np.array_equal(vectorized, scalar), (
            f"{key} @ {n_sets_physical} sets: vectorized path diverged"
        )
        assert vectorized.min() >= 0
        assert vectorized.max() < indexing.n_sets


@pytest.mark.parametrize("key", available_indexings())
def test_vectorized_matches_scalar_on_edge_addresses(key):
    """Boundary addresses: zeros, set-count multiples, max-bit patterns."""
    indexing = make_indexing(key, 2048)
    edges = np.array(
        [0, 1, 2047, 2048, 2049, 2**31 - 1, 2**31, 2**32 - 1,
         2039 * 12345],
        dtype=np.uint64,
    )
    assert indexing.index_array(edges).tolist() == [
        indexing.index(int(a)) for a in edges
    ]


@settings(max_examples=50, deadline=None)
@given(
    key=st.sampled_from(available_indexings()),
    addrs=st.lists(st.integers(min_value=0, max_value=MAX_ADDRESS),
                   min_size=1, max_size=64),
)
def test_vectorized_matches_scalar_property(key, addrs):
    indexing = make_indexing(key, 256)
    batch = np.array(addrs, dtype=np.uint64)
    assert indexing.index_array(batch).tolist() == [
        indexing.index(a) for a in addrs
    ]


# -- prime and keyed fleets ---------------------------------------------
#
# The store and cluster build their tables with exact usable counts
# (``n_sets=`` a prime from the ladder, e.g. 67 over 128 physical) and
# keyed schemes under rotating secrets, and route full 64-bit canonical
# keys; the geometries above cover none of that.

#: Exact-prime fleets: the ladder's small rungs, both sides of a power
#: of two, and an L2-sized prime.
EXACT_PRIMES = (3, 5, 13, 61, 67, 127, 131, 2039, 8191)

MAX_KEY = 2**64 - 1

@st.composite
def fleets(draw):
    """``(physical, n_sets)``: ``n_sets`` a prime up to ``physical`` or
    any count in (0, physical]."""
    physical = 1 << draw(st.integers(min_value=1, max_value=16))
    return physical, draw(st.one_of(
        st.sampled_from(primes_below(physical + 1)),
        st.integers(1, physical)))

SECRETS = st.integers(min_value=0, max_value=MAX_KEY)


def _agree(indexing, addrs):
    batch = np.array(addrs, dtype=np.uint64)
    vectorized = indexing.index_array(batch)
    assert vectorized.tolist() == [indexing.index(int(a)) for a in addrs]
    assert vectorized.min() >= 0
    assert vectorized.max() < indexing.n_sets


@pytest.mark.parametrize("n_sets", EXACT_PRIMES)
@pytest.mark.parametrize("scheme", ("pmod", "keyed"))
def test_exact_prime_fleets_on_64_bit_keys(scheme, n_sets):
    physical = 1 << n_sets.bit_length()
    indexing = (PrimeModuloIndexing(physical, n_sets=n_sets)
                if scheme == "pmod"
                else KeyedMersenneIndexing(physical, key=n_sets,
                                           n_sets=n_sets))
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        _agree(indexing, rng.integers(0, MAX_KEY, size=2048,
                                      dtype=np.uint64, endpoint=True))
    _agree(indexing, [0, 1, n_sets - 1, n_sets, physical, MAX_KEY,
                      MAX_KEY - 1, 2**61 - 1, 2**61, 2**63])


@settings(max_examples=150, deadline=None)
@given(fleet=fleets(), secret=SECRETS,
       scheme=st.sampled_from(("pmod", "keyed")),
       addrs=st.lists(st.integers(0, MAX_KEY), min_size=1, max_size=64))
def test_random_n_sets_property(fleet, secret, scheme, addrs):
    physical, n_sets = fleet
    indexing = (PrimeModuloIndexing(physical, n_sets=n_sets)
                if scheme == "pmod"
                else KeyedMersenneIndexing(physical, key=secret,
                                           n_sets=n_sets))
    _agree(indexing, addrs)


@settings(max_examples=150, deadline=None)
@given(bits=st.integers(min_value=1, max_value=16), secret=SECRETS,
       addrs=st.lists(st.integers(0, MAX_KEY), min_size=1, max_size=64))
def test_keyed_fleets_property(bits, secret, addrs):
    """Both keyed schemes under a drawn secret, the full key width."""
    for indexing in (KeyedMersenneIndexing(1 << bits, key=secret),
                     KeyedDisplacementIndexing(1 << bits, key=secret)):
        _agree(indexing, addrs)
