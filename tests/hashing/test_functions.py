"""Tests for the four single-hash indexing functions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.hashing import (
    PrimeDisplacementIndexing,
    PrimeModuloIndexing,
    TraditionalIndexing,
    XorIndexing,
    available_indexings,
    make_indexing,
)

ADDRS = st.integers(min_value=0, max_value=2**32 - 1)


@pytest.fixture(params=["traditional", "xor", "pmod", "pdisp"])
def indexing(request):
    return make_indexing(request.param, 2048)


class TestCommonContract:
    def test_registry_lists_all_functions(self):
        assert available_indexings() == [
            "gf2", "keyed", "keyed_pdisp", "multiplicative", "pdisp",
            "pmod", "traditional", "xor", "xorfold",
        ]

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError, match="unknown indexing"):
            make_indexing("nope", 2048)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            TraditionalIndexing(2039)

    def test_index_in_range(self, indexing):
        for addr in (0, 1, 2047, 2048, 123456789, 2**31 - 1):
            assert 0 <= indexing.index(addr) < indexing.n_sets

    def test_vectorized_matches_scalar(self, indexing):
        rng = np.random.default_rng(7)
        addrs = rng.integers(0, 2**32, size=4096, dtype=np.uint64)
        vec = indexing.index_array(addrs)
        scalar = [indexing.index(int(a)) for a in addrs]
        assert vec.tolist() == scalar

    def test_deterministic(self, indexing):
        assert indexing.index(987654321) == indexing.index(987654321)

    def test_repr_mentions_geometry(self, indexing):
        assert "2048" in repr(indexing)


class TestTraditional:
    def test_is_low_bits(self):
        trad = TraditionalIndexing(2048)
        assert trad.index(0x12345) == 0x12345 % 2048

    def test_no_fragmentation(self):
        assert TraditionalIndexing(2048).fragmentation == 0.0

    @given(ADDRS)
    def test_equals_modulo(self, addr):
        assert TraditionalIndexing(1024).index(addr) == addr % 1024


class TestXor:
    def test_tag_xor_index(self):
        xor = XorIndexing(16)
        # a = t|x with t=0b0011, x=0b0101 -> 0b0110
        assert xor.index((0b0011 << 4) | 0b0101) == 0b0110

    def test_paper_pathological_stride(self):
        """Paper Section 3.3: s = n_set - 1 = 15 with 16 sets maps the
        sweep onto sets 0, 15, 15, 15, ..."""
        xor = XorIndexing(16)
        sets = [xor.index(i * 15) for i in range(16)]
        assert sets[0] == 0
        assert all(s == 15 for s in sets[1 : 16]) is False or sets.count(15) > 8
        # the distribution is degenerate: far fewer than 16 distinct sets
        assert len(set(sets)) < 8

    @given(ADDRS)
    def test_same_set_iff_tagxor_matches(self, addr):
        xor = XorIndexing(2048)
        t = (addr >> 11) & 2047
        x = addr & 2047
        assert xor.index(addr) == t ^ x


class TestPrimeModulo:
    def test_default_prime_table1(self):
        for phys, prime in [(256, 251), (2048, 2039), (8192, 8191)]:
            assert PrimeModuloIndexing(phys).n_sets == prime

    def test_delta(self):
        assert PrimeModuloIndexing(2048).delta == 9

    def test_explicit_n_sets(self):
        pm = PrimeModuloIndexing(2048, n_sets=2047)
        assert pm.n_sets == 2047

    def test_invalid_n_sets(self):
        with pytest.raises(ValueError):
            PrimeModuloIndexing(2048, n_sets=4096)
        with pytest.raises(ValueError):
            PrimeModuloIndexing(2048, n_sets=0)

    def test_fragmentation_paper_values(self):
        assert PrimeModuloIndexing(2048).fragmentation == pytest.approx(9 / 2048)
        assert PrimeModuloIndexing(8192).fragmentation == pytest.approx(1 / 8192)

    @given(ADDRS)
    def test_equals_true_modulo(self, addr):
        assert PrimeModuloIndexing(2048).index(addr) == addr % 2039

    def test_never_uses_fragmented_sets(self):
        pm = PrimeModuloIndexing(2048)
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 2**32, size=100000, dtype=np.uint64)
        assert int(pm.index_array(addrs).max()) < 2039


class TestPrimeDisplacement:
    def test_default_constant_is_nine(self):
        assert PrimeDisplacementIndexing(2048).displacement == 9

    def test_rejects_even_displacement(self):
        with pytest.raises(ValueError, match="odd"):
            PrimeDisplacementIndexing(2048, displacement=10)

    def test_formula(self):
        pd = PrimeDisplacementIndexing(2048, displacement=9)
        addr = (37 << 11) | 123
        assert pd.index(addr) == (9 * 37 + 123) % 2048

    def test_depends_only_on_truncated_tag(self):
        """p·T mod 2^k depends only on T mod 2^k — this is why the paper
        can implement pDisp with a *narrow truncated* multiply-add
        regardless of machine address width (Section 3.2)."""
        pd = PrimeDisplacementIndexing(2048, displacement=9)
        a = (37 << 11) | 123
        b = a + (1 << 22)  # adds a multiple of 2^11 to the tag
        assert pd.index(a) == pd.index(b)

    def test_distinguishes_tags_in_low_chunk(self):
        pd = PrimeDisplacementIndexing(2048, displacement=9)
        a = (37 << 11) | 123
        b = (38 << 11) | 123  # same x, tag differs by 1 -> set differs by 9
        assert pd.index(b) == (pd.index(a) + 9) % 2048

    @given(ADDRS, st.sampled_from([9, 19, 31, 37]))
    def test_formula_property(self, addr, p):
        pd = PrimeDisplacementIndexing(2048, displacement=p)
        assert pd.index(addr) == (p * (addr >> 11) + (addr & 2047)) % 2048

    @pytest.mark.parametrize("p", [9, 19, 31, 37])
    @pytest.mark.parametrize("n_sets", [16, 64, 256])
    def test_vectorized_matches_scalar_for_paper_constants(self, p, n_sets):
        pd = PrimeDisplacementIndexing(n_sets, displacement=p)
        rng = np.random.default_rng(p)
        addrs = rng.integers(0, 2**48, size=1024, dtype=np.uint64)
        assert pd.index_array(addrs).tolist() == [
            pd.index(int(a)) for a in addrs]

    def test_bijective_within_tag_group(self):
        """For a fixed tag, displacement is a permutation of the sets."""
        pd = PrimeDisplacementIndexing(256)
        tag = 77
        sets = {pd.index((tag << 8) | x) for x in range(256)}
        assert len(sets) == 256
