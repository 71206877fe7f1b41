"""Sequence invariance (paper §3, Property 2) of key→shard routing.

The analysis-layer checker takes a routing table's ``indexing``, so the
paper's property transfers verbatim to shard routing on strided key
streams: traditional and pMod are sequence invariant on every stride;
XOR is not; pDisp is *partially* invariant — strictly fewer violations
than XOR over the same streams, which is what keeps its concentration
near pMod's (Section 3.3) — with each of the paper's displacement
constants.
"""

import pytest

from repro.hashing import (
    PrimeDisplacementIndexing,
    is_sequence_invariant,
    sequence_invariance_violations,
    strided_addresses,
)
from repro.store import RoutingTable, make_traffic, request_keys

N_SHARDS = 64

#: Non-default fleet sizes the parametrized properties must survive:
#: the power-of-two rungs every scheme can route, and the exact prime
#: rungs the epoch ladder grows pMod along.
POW2_COUNTS = (16, 32, 128, 256)
PRIME_COUNTS = (61, 67, 127, 251)

#: Strided key streams the property is checked over (odd, even,
#: around-the-shard-count, and power-of-two strides).
STRIDES = (1, 2, 63, 64, 65, 96, 128)


def _indexing(scheme, n_shards):
    return RoutingTable.create(scheme, n_shards).indexing


def _violations(indexing):
    return sum(
        sequence_invariance_violations(indexing, strided_addresses(s, 2048))
        for s in STRIDES
    )


@pytest.mark.parametrize("scheme", ["traditional", "pmod"])
@pytest.mark.parametrize("stride", STRIDES)
def test_modulo_selectors_are_sequence_invariant(scheme, stride):
    indexing = _indexing(scheme, N_SHARDS)
    assert is_sequence_invariant(indexing, strided_addresses(stride, 2048))


@pytest.mark.parametrize("scheme", ["traditional", "pmod"])
@pytest.mark.parametrize("n_shards", POW2_COUNTS)
def test_invariance_across_pow2_fleet_sizes(scheme, n_shards):
    """Property 2 is a property of the modulo family, not of the
    default 64-shard fleet: it must hold on every pow2 rung."""
    indexing = _indexing(scheme, n_shards)
    for stride in STRIDES:
        assert is_sequence_invariant(indexing, strided_addresses(stride, 2048))


@pytest.mark.parametrize("n_shards", PRIME_COUNTS)
def test_pmod_invariance_on_exact_prime_fleets(n_shards):
    """The epoch ladder runs pMod on *exact* prime shard counts
    (61 -> 67 -> ...); sequence invariance must survive every rung."""
    indexing = _indexing("pmod", n_shards)
    assert indexing.n_sets == n_shards
    for stride in STRIDES:
        assert is_sequence_invariant(indexing, strided_addresses(stride, 2048))


def test_xor_selector_violates_invariance():
    assert _violations(_indexing("xor", N_SHARDS)) > 0


@pytest.mark.parametrize("displacement", [9, 19, 31, 37],
                         ids=["pdisp", "pdisp19", "pdisp31", "pdisp37"])
def test_pdisp_selector_partially_invariant(displacement):
    """Fewer violations than XOR on the same streams — partial
    invariance, the §3.3 middle ground — for the store's ``pdisp``
    (p = 9) and the paper's other displacement constants."""
    pdisp = _violations(
        PrimeDisplacementIndexing(N_SHARDS, displacement=displacement))
    xor = _violations(_indexing("xor", N_SHARDS))
    assert 0 < pdisp < xor


def test_invariance_holds_for_served_strided_traffic():
    """The property also holds on the store's own strided traffic for
    pMod — the scheme the store defaults to."""
    indexing = _indexing("pmod", N_SHARDS)
    for stride in (16, 64, 512):
        keys = request_keys(
            make_traffic("strided", 4096, seed=0, stride=stride))
        assert is_sequence_invariant(indexing, keys)
