"""ShardSelector: scheme registry, key folding, routing, analysis duck-typing."""

from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing import balance, strided_addresses
from repro.mathutil import largest_prime_below
from repro.store import (
    ShardSelector,
    available_selectors,
    make_selector,
    make_selector_exact,
)
from repro.store.selector import canonical_key


class TestRegistry:
    def test_available_selectors(self):
        assert available_selectors() == [
            "keyed", "keyed_pdisp", "pdisp", "pdisp19", "pdisp31",
            "pdisp37", "pmod", "traditional", "xor",
        ]

    def test_unknown_scheme_raises(self):
        with pytest.raises(KeyError, match="unknown store scheme"):
            make_selector("nope", 64)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            make_selector("traditional", 60)

    def test_pmod_uses_prime_shard_count(self):
        selector = make_selector("pmod", 64)
        assert selector.n_shards == largest_prime_below(64) == 61
        assert selector.n_shards_physical == 64

    @pytest.mark.parametrize("scheme,p", [
        ("pdisp", 9), ("pdisp19", 19), ("pdisp31", 31), ("pdisp37", 37),
    ])
    def test_pdisp_constants_are_the_papers(self, scheme, p):
        selector = make_selector(scheme, 64)
        assert selector.indexing.displacement == p


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
    @pytest.mark.parametrize("scheme", available_selectors())
    def test_shard_in_range(self, scheme):
        selector = make_selector(scheme, 64)
        for key in (0, 1, 63, 64, 2**32 - 1, "a-string-key"):
            assert 0 <= selector.shard(key) < selector.n_shards

    @pytest.mark.parametrize("scheme", available_selectors())
    def test_shard_array_matches_scalar(self, scheme):
        selector = make_selector(scheme, 64)
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 2**48, size=2048, dtype=np.uint64)
        vec = selector.shard_array(keys)
        assert vec.tolist() == [selector.shard(int(k)) for k in keys]

    @pytest.mark.parametrize("scheme", available_selectors())
    @pytest.mark.parametrize("n_shards", [16, 32, 128, 256])
    def test_shard_array_matches_scalar_across_pow2_counts(
            self, scheme, n_shards):
        """The scalar/vectorized agreement is fleet-size independent on
        the power-of-two rungs every scheme supports."""
        selector = make_selector(scheme, n_shards)
        rng = np.random.default_rng(n_shards)
        keys = rng.integers(0, 2**48, size=1024, dtype=np.uint64)
        vec = selector.shard_array(keys)
        assert vec.tolist() == [selector.shard(int(k)) for k in keys]

    @pytest.mark.parametrize("n_shards", [61, 67, 127, 251])
    def test_shard_array_matches_scalar_on_exact_prime_counts(
            self, n_shards):
        """pMod on the epoch ladder's exact prime rungs: the vectorized
        router and the scalar one agree key for key."""
        selector = make_selector_exact("pmod", n_shards)
        assert selector.n_shards == n_shards
        rng = np.random.default_rng(n_shards)
        keys = rng.integers(0, 2**48, size=1024, dtype=np.uint64)
        vec = selector.shard_array(keys)
        assert vec.tolist() == [selector.shard(int(k)) for k in keys]

    def test_traditional_is_low_bits(self):
        selector = make_selector("traditional", 64)
        assert selector.shard(1000) == 1000 % 64

    def test_pmod_is_prime_modulo(self):
        selector = make_selector("pmod", 64)
        assert selector.shard(1000) == 1000 % 61


class TestAnalysisCompatibility:
    """analysis metrics accept a selector exactly like an indexing."""

    def test_balance_of_even_stride(self):
        trad = make_selector("traditional", 64)
        pmod = make_selector("pmod", 64)
        addrs = strided_addresses(64, 4096)
        assert balance(trad, addrs) > 10 * balance(pmod, addrs)

    def test_index_surface_delegates(self):
        selector = make_selector("xor", 64)
        assert selector.n_sets == selector.indexing.n_sets
        assert selector.n_sets_physical == 64
        assert selector.index(777) == selector.indexing.index(777)

    def test_repr_mentions_scheme(self):
        assert "pmod" in repr(make_selector("pmod", 64))

    def test_wraps_existing_indexing(self):
        from repro.hashing import XorIndexing

        selector = ShardSelector(XorIndexing(128))
        assert selector.scheme == "XOR"
        assert selector.n_shards == 128
