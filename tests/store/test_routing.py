"""RoutingTable: the scheme table, construction, rekeying, epochs, the
prime ladder, quarantine re-routing."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing import INDEXINGS
from repro.store import (
    STORE_SCHEMES,
    RoutingTable,
    ladder_down,
    ladder_up,
    make_selector,
    normalize_shard_count,
    prime_capable,
)
from repro.store.routing import canonical_key


class TestSchemeTable:
    def test_store_schemes(self):
        assert sorted(STORE_SCHEMES) == [
            "keyed", "keyed_pdisp", "pdisp", "pmod", "traditional", "xor"]

    def test_every_scheme_is_the_hashing_registrys_entry(self):
        """The store keeps no factories of its own: each scheme is the
        hashing registry's entry under the same key."""
        for scheme, factory in STORE_SCHEMES.items():
            assert factory is INDEXINGS[scheme], scheme

    def test_make_selector_is_create(self):
        table = make_selector("pmod", 64)
        assert table.describe() == RoutingTable.create("pmod", 64).describe()
        assert table.shard(1000) == table.indexing.index(1000) == 1000 % 61


class TestLadder:
    def test_prime_capability(self):
        assert prime_capable("pmod")
        for scheme in ("traditional", "xor", "pdisp"):
            assert not prime_capable(scheme)

    def test_pmod_climbs_prime_to_prime(self):
        assert ladder_up("pmod", 61) == 67
        assert ladder_up("pmod", 67) == 71
        assert ladder_down("pmod", 67) == 61
        assert ladder_down("pmod", 61) == 59

    def test_pow2_schemes_double_and_halve(self):
        assert ladder_up("traditional", 64) == 128
        assert ladder_up("xor", 64) == 128
        assert ladder_down("pdisp", 64) == 32

    def test_ladder_bottom_raises(self):
        with pytest.raises(ValueError):
            ladder_down("traditional", 2)
        with pytest.raises(ValueError):
            ladder_down("pmod", 2)

    def test_normalize_snaps_upward_onto_the_ladder(self):
        assert normalize_shard_count("pmod", 61) == 61
        assert normalize_shard_count("pmod", 62) == 67
        assert normalize_shard_count("xor", 64) == 64
        assert normalize_shard_count("xor", 65) == 128
        with pytest.raises(ValueError):
            normalize_shard_count("pmod", 1)


class TestConstruction:
    def test_pow2_count_keeps_classic_pmod_semantics(self):
        # The paper's construction: 64 physical shards, largest prime
        # below (61) usable — Table 1's fragmentation, unchanged.
        table = RoutingTable.create("pmod", 64)
        assert table.n_shards == 61
        assert table.n_shards_physical == 64

    def test_exact_prime_count_is_honored(self):
        table = RoutingTable.create("pmod", 67)
        assert table.n_shards == 67
        assert table.epoch_id == 0

    @pytest.mark.parametrize("scheme", ["pmod", "keyed"])
    @pytest.mark.parametrize("n_shards", [3, 61, 67, 127])
    def test_prime_capable_schemes_take_exact_primes(self, scheme, n_shards):
        """A prime count is the usable count, over the smallest covering
        power of two, and every one of its shards receives keys."""
        table = RoutingTable.create(scheme, n_shards)
        assert table.n_shards == table.indexing.n_sets == n_shards
        assert table.n_shards_physical == 1 << n_shards.bit_length()
        assert {table.shard(k) for k in range(50 * n_shards)} == set(
            range(n_shards))

    def test_too_few_shards_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            RoutingTable.create("pmod", 1)

    def test_unknown_scheme_raises(self):
        with pytest.raises(KeyError, match="unknown store scheme"):
            RoutingTable.create("nope", 64)

    def test_tables_are_immutable(self):
        table = RoutingTable.create("xor", 64)
        with pytest.raises(AttributeError):
            table.epoch_id = 5

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError, match="epoch_id"):
            RoutingTable.create("xor", 64, epoch_id=-1)


class TestDerivation:
    def test_every_derivation_bumps_the_epoch(self):
        table = RoutingTable.create("pmod", 61)
        assert table.grown().epoch_id == 1
        assert table.reschemed("xor").epoch_id == 1
        assert table.with_quarantined([3]).epoch_id == 1
        # The original is untouched.
        assert table.epoch_id == 0

    def test_grown_walks_the_prime_ladder(self):
        table = RoutingTable.create("pmod", 61)
        grown = table.grown()
        assert grown.n_shards == 67
        assert grown.shrunk().n_shards == 61

    def test_reschemed_renormalizes_the_count(self):
        # pmod@61 -> xor must land on a power of two (64), not 61.
        table = RoutingTable.create("pmod", 61)
        swapped = table.reschemed("xor")
        assert swapped.scheme == "xor"
        assert swapped.n_shards == 64

    def test_resize_clears_quarantine(self):
        table = RoutingTable.create("pmod", 61).with_quarantined([1, 2])
        assert table.grown().quarantined == frozenset()

    def test_quarantine_noop_returns_self(self):
        table = RoutingTable.create("xor", 64).with_quarantined([5])
        assert table.with_quarantined([5]) is table
        assert table.without_quarantined([9]) is table

    def test_without_quarantined_heals(self):
        table = RoutingTable.create("xor", 64).with_quarantined([5, 6])
        healed = table.without_quarantined([5])
        assert healed.quarantined == frozenset([6])
        assert table.without_quarantined().quarantined == frozenset()

    def test_quarantine_validation(self):
        table = RoutingTable.create("xor", 4)
        with pytest.raises(ValueError, match="outside"):
            table.with_quarantined([99])
        with pytest.raises(ValueError, match="every shard"):
            table.with_quarantined([0, 1, 2, 3])


class TestRekey:
    @pytest.mark.parametrize("scheme,n_shards", [("keyed", 61),
                                                 ("keyed", 64),
                                                 ("keyed_pdisp", 16)])
    def test_rekeyed_scrambles_the_map_not_the_geometry(self, scheme,
                                                        n_shards):
        table = RoutingTable.create(scheme, n_shards).with_quarantined([1])
        fresh = table.rekeyed(12345)
        assert fresh.epoch_id == table.epoch_id + 1
        assert (fresh.scheme, fresh.n_shards, fresh.n_shards_physical) == (
            table.scheme, table.n_shards, table.n_shards_physical)
        assert fresh.quarantined == frozenset()
        assert fresh.indexing.key == 12345 != table.indexing.key
        keys = range(0, 1 << 20, 997)
        assert [fresh.shard(k) for k in keys] != [
            table.shard(k) for k in keys]
        # The same secret routes the same way.
        assert [fresh.shard(k) for k in keys] == [
            table.rekeyed(12345).shard(k) for k in keys]

    @pytest.mark.parametrize("scheme", ["traditional", "xor", "pmod",
                                        "pdisp"])
    def test_unkeyed_scheme_refuses_to_rekey(self, scheme):
        with pytest.raises(ValueError, match="not keyed"):
            RoutingTable.create(scheme, 64).rekeyed(7)


class TestQuarantineRouting:
    def test_quarantined_shard_receives_no_traffic(self):
        table = RoutingTable.create("pmod", 61).with_quarantined([7, 8])
        shards = {table.shard(k) for k in range(5000)}
        assert 7 not in shards and 8 not in shards
        assert shards <= set(table.healthy_shards())

    def test_reroute_is_the_next_healthy_shard(self):
        table = RoutingTable.create("traditional", 8).with_quarantined([3])
        # key 3 routes to shard 3 under traditional; probe lands on 4.
        assert table.shard(3) == 4

    def test_scalar_and_vector_agree_under_quarantine(self):
        table = RoutingTable.create("pmod", 61).with_quarantined([0, 13])
        keys = np.arange(10000, dtype=np.uint64) * 7
        vec = table.shard_array(keys)
        assert vec.tolist() == [table.shard(int(k)) for k in keys]

    def test_empty_quarantine_fast_path_matches_selector(self):
        table = RoutingTable.create("xor", 64)
        keys = np.arange(4096, dtype=np.uint64)
        assert np.array_equal(table.shard_array(keys),
                              table.indexing.index_array(keys))


#: Keys the canonical fold treats differently: negative ints, ints of
#: 64 bits and wider, str and bytes.
KEYS = st.one_of(
    st.integers(min_value=-(1 << 80), max_value=-1),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.integers(min_value=1 << 64, max_value=1 << 80),
    st.text(max_size=12),
    st.binary(max_size=12))


class TestRouteAgainstShard:
    @pytest.mark.parametrize("quarantined", [False, True])
    @pytest.mark.parametrize("scheme", sorted(STORE_SCHEMES))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_route_of_canonical_is_shard(self, scheme, quarantined, data):
        """``shard(k)`` and ``route(canonical_key(k))`` both land where
        a walk written out here lands: the indexing function's set for
        the folded key, then ``+1 mod n_shards`` past every
        quarantined shard.  For every scheme, keyed ones included,
        over power-of-two and (where the scheme allows) prime fleets,
        with no shard or up to all but one quarantined."""
        counts = [16, 64] + ([13, 61] if prime_capable(scheme) else [])
        table = RoutingTable.create(
            scheme, data.draw(st.sampled_from(counts), label="n_shards"))
        if quarantined:
            table = table.with_quarantined(data.draw(st.sets(
                st.integers(min_value=0, max_value=table.n_shards - 1),
                min_size=1, max_size=table.n_shards - 1),
                label="quarantine"))
        for key in data.draw(st.lists(KEYS, min_size=1, max_size=25),
                             label="keys"):
            expected = table.indexing.index(canonical_key(key))
            while expected in table.quarantined:
                expected = (expected + 1) % table.n_shards
            assert table.shard(key) == expected
            assert table.route(canonical_key(key)) == expected

    @pytest.mark.parametrize("quarantine", [(), (3, 4)])
    def test_route_survives_pickle_and_copy(self, quarantine):
        table = RoutingTable.create("keyed", 61).with_quarantined(
            quarantine)
        keys = list(range(0, 1 << 20, 997))
        for clone in (pickle.loads(pickle.dumps(table)),
                      copy.copy(table), copy.deepcopy(table)):
            assert [clone.route(k) for k in keys] == [
                table.shard(k) for k in keys]

    def test_derived_tables_get_their_own_route(self):
        table = RoutingTable.create("traditional", 8)
        quarantined = table.with_quarantined([3])
        healed = quarantined.without_quarantined()
        assert (table.route(3), quarantined.route(3), healed.route(3)) == (
            3, 4, 3)


class TestDescribe:
    def test_json_friendly_summary(self):
        table = RoutingTable.create("pmod", 67).with_quarantined([2])
        assert table.describe() == {
            "scheme": "pmod",
            "epoch_id": 1,
            "n_shards": 67,
            "n_shards_physical": 128,
            "quarantined": [2],
        }
