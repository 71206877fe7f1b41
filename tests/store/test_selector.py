"""Key→shard routing over the scheme table: scheme keys, key folding,
routing, and the table's indexing as the analysis surface.

The cases cover :class:`~repro.store.routing.RoutingTable` and
:func:`~repro.store.routing.canonical_key`; epochs, the ladder and
quarantine are in ``test_routing.py``.
"""

from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing import balance, strided_addresses
from repro.mathutil import largest_prime_below
from repro.store import STORE_SCHEMES, RoutingTable
from repro.store.routing import canonical_key

SCHEMES = sorted(STORE_SCHEMES)


class TestRegistry:
    def test_unknown_scheme_raises(self):
        with pytest.raises(KeyError, match="unknown store scheme"):
            RoutingTable.create("nope", 64)

    def test_non_power_of_two_rejected(self):
        """Bit-mask schemes need a power of two; the prime-capable ones
        a power of two or a prime."""
        for scheme, n_shards in (("traditional", 60), ("xor", 61),
                                 ("pdisp", 67), ("keyed_pdisp", 61),
                                 ("pmod", 60), ("keyed", 63)):
            with pytest.raises(ValueError, match="power-of-two"):
                RoutingTable.create(scheme, n_shards)

    def test_pmod_uses_prime_shard_count(self):
        table = RoutingTable.create("pmod", 64)
        assert table.n_shards == largest_prime_below(64) == 61
        assert table.n_shards_physical == 64

    @pytest.mark.parametrize("scheme,p", [("pdisp", 9)])
    def test_pdisp_constants_are_the_papers(self, scheme, p):
        table = RoutingTable.create(scheme, 64)
        assert table.indexing.displacement == p


class TestCanonicalKey:
    def test_int_passthrough(self):
        assert canonical_key(12345) == 12345

    def test_negative_int_masked(self):
        assert canonical_key(-1) == 2**64 - 1

    def test_str_and_bytes_agree(self):
        assert canonical_key("user:42") == canonical_key(b"user:42")

    def test_str_stable_across_calls(self):
        assert canonical_key("x") == canonical_key("x")

    def test_bool_rejected(self):
        for flag in (True, False):
            with pytest.raises(TypeError, match="bool"):
                canonical_key(flag)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError, match="unsupported"):
            canonical_key(3.14)

    @settings(max_examples=100, deadline=None)
    @given(value=st.integers(min_value=-(1 << 70), max_value=1 << 70))
    def test_int_subclasses_fold_like_their_value(self, value):
        """An ``IntEnum`` member (or any int subclass) misses the plain
        ``int`` test and folds through the general path, to the same
        plain int as its value."""
        member = IntEnum("Key", [("K", value)]).K

        class Wide(int):
            pass

        for key in (member, Wide(value)):
            folded = canonical_key(key)
            assert type(folded) is int
            assert folded == canonical_key(value) == value & (2**64 - 1)


class TestRouting:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_shard_in_range(self, scheme):
        table = RoutingTable.create(scheme, 64)
        for key in (0, 1, 63, 64, 2**32 - 1, "a-string-key"):
            assert 0 <= table.shard(key) < table.n_shards

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_shard_array_matches_scalar(self, scheme):
        table = RoutingTable.create(scheme, 64)
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 2**48, size=2048, dtype=np.uint64)
        vec = table.shard_array(keys)
        assert vec.tolist() == [table.shard(int(k)) for k in keys]

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n_shards", [16, 32, 128, 256])
    def test_shard_array_matches_scalar_across_pow2_counts(
            self, scheme, n_shards):
        """The scalar/vectorized agreement is fleet-size independent on
        the power-of-two rungs every scheme supports."""
        table = RoutingTable.create(scheme, n_shards)
        rng = np.random.default_rng(n_shards)
        keys = rng.integers(0, 2**48, size=1024, dtype=np.uint64)
        vec = table.shard_array(keys)
        assert vec.tolist() == [table.shard(int(k)) for k in keys]

    @pytest.mark.parametrize("n_shards", [61, 67, 127, 251])
    def test_shard_array_matches_scalar_on_exact_prime_counts(
            self, n_shards):
        """pMod on the epoch ladder's exact prime rungs: the vectorized
        router and the scalar one agree key for key."""
        table = RoutingTable.create("pmod", n_shards)
        assert table.n_shards == n_shards
        rng = np.random.default_rng(n_shards)
        keys = rng.integers(0, 2**48, size=1024, dtype=np.uint64)
        vec = table.shard_array(keys)
        assert vec.tolist() == [table.shard(int(k)) for k in keys]

    def test_traditional_is_low_bits(self):
        table = RoutingTable.create("traditional", 64)
        assert table.shard(1000) == 1000 % 64

    def test_pmod_is_prime_modulo(self):
        table = RoutingTable.create("pmod", 64)
        assert table.shard(1000) == 1000 % 61


class TestAnalysisCompatibility:
    """analysis metrics take a table's ``indexing``."""

    def test_balance_of_even_stride(self):
        trad = RoutingTable.create("traditional", 64)
        pmod = RoutingTable.create("pmod", 64)
        addrs = strided_addresses(64, 4096)
        assert balance(trad.indexing, addrs) > 10 * balance(
            pmod.indexing, addrs)

    def test_index_surface_delegates(self):
        """The table's shard counts are its indexing's set counts, and
        an unquarantined table routes a folded key by its index."""
        table = RoutingTable.create("xor", 64)
        assert table.n_shards == table.indexing.n_sets
        assert table.n_shards_physical == 64
        assert table.shard(777) == table.route(777) == \
            table.indexing.index(777)

    def test_repr_mentions_scheme(self):
        assert "pmod" in repr(RoutingTable.create("pmod", 64))

    def test_wraps_existing_indexing(self):
        from repro.hashing import XorIndexing

        table = RoutingTable("xor", 0, XorIndexing(128))
        assert table.n_shards == 128
        assert table.shard(777) == XorIndexing(128).index(777)
