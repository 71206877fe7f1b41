"""Equivalence tests: fast path vs reference cache model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import SetAssociativeCache
from repro.cache.fastsim import simulate_misses, simulate_misses_reference
from repro.hashing import (
    PrimeModuloIndexing,
    TraditionalIndexing,
    XorIndexing,
    make_indexing,
)


def reference_misses(indexing, blocks, assoc):
    cache = SetAssociativeCache(indexing.n_sets_physical, assoc, indexing)
    for b in blocks:
        cache.access(int(b))
    return cache.stats


class TestEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 4095), min_size=1, max_size=400),
        st.sampled_from(["traditional", "xor", "pmod", "pdisp"]),
        st.sampled_from([1, 2, 4]),
    )
    def test_matches_reference_model(self, blocks, key, assoc):
        indexing = make_indexing(key, 64)
        blocks = np.asarray(blocks, dtype=np.uint64)
        fast = simulate_misses(indexing, blocks, assoc)
        ref = reference_misses(make_indexing(key, 64), blocks, assoc)
        assert fast.misses == ref.misses
        assert np.array_equal(fast.set_accesses, ref.set_accesses)
        assert np.array_equal(fast.set_misses, ref.set_misses)

    def test_workload_scale_equivalence(self):
        """A real workload trace at modest scale: both paths agree."""
        from repro.workloads import get_workload
        trace = get_workload("tree").trace(scale=0.05, seed=0)
        blocks = trace.block_addresses(64)
        indexing = PrimeModuloIndexing(2048)
        fast = simulate_misses(indexing, blocks, 4)
        ref = reference_misses(PrimeModuloIndexing(2048), blocks, 4)
        assert fast.misses == ref.misses


class TestVectorizedVsReference:
    """The numpy path must be bit-identical to the per-access loop."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 1 << 16), min_size=1, max_size=600),
        st.sampled_from(["traditional", "xor", "pmod", "pdisp"]),
        st.sampled_from([1, 2, 4, 8]),
    )
    def test_bit_identical_to_loop(self, blocks, key, assoc):
        indexing = make_indexing(key, 128)
        blocks = np.asarray(blocks, dtype=np.uint64)
        fast = simulate_misses(indexing, blocks, assoc)
        ref = simulate_misses_reference(indexing, blocks, assoc)
        assert fast.misses == ref.misses
        assert np.array_equal(fast.set_accesses, ref.set_accesses)
        assert np.array_equal(fast.set_misses, ref.set_misses)

    def test_strided_pathologies(self):
        """Power-of-two strides concentrate sets; the windows get long
        and exercise the chunked band loop."""
        indexing = make_indexing("traditional", 2048)
        oracle = make_indexing("traditional", 2048)
        for stride in (2048, 4096, 1024):
            blocks = (np.arange(30000, dtype=np.uint64) * stride) % (1 << 24)
            fast = simulate_misses(indexing, blocks, 4)
            ref = simulate_misses_reference(oracle, blocks, 4)
            assert fast.misses == ref.misses
            assert np.array_equal(fast.set_misses, ref.set_misses)

    def test_workload_trace_identical(self):
        """A real workload trace at the paper's L2 geometry."""
        from repro.workloads import get_workload
        trace = get_workload("tree").trace(scale=0.1, seed=0)
        blocks = trace.block_addresses(64)
        fast = simulate_misses(PrimeModuloIndexing(2048), blocks, 4)
        ref = simulate_misses_reference(PrimeModuloIndexing(2048), blocks, 4)
        assert fast.misses == ref.misses
        assert np.array_equal(fast.set_accesses, ref.set_accesses)
        assert np.array_equal(fast.set_misses, ref.set_misses)


class TestInterface:
    def test_validation(self):
        idx = TraditionalIndexing(16)
        with pytest.raises(ValueError):
            simulate_misses(idx, np.zeros(4, dtype=np.uint64), 0)
        with pytest.raises(ValueError):
            simulate_misses(idx, np.zeros((2, 2), dtype=np.uint64), 2)

    def test_counters_optional(self):
        idx = XorIndexing(16)
        result = simulate_misses(idx, np.arange(100, dtype=np.uint64), 2,
                                 per_set_counters=False)
        assert result.set_accesses is None
        assert result.misses > 0

    def test_derived_metrics(self):
        idx = TraditionalIndexing(16)
        result = simulate_misses(idx, np.zeros(10, dtype=np.uint64), 2)
        assert result.hits == 9
        assert result.miss_rate == pytest.approx(0.1)

    def test_is_actually_faster(self):
        """The fast path must beat the reference model on a real sweep."""
        import time
        idx_fast = PrimeModuloIndexing(2048)
        idx_ref = PrimeModuloIndexing(2048)
        rng = np.random.default_rng(1)
        blocks = rng.integers(0, 1 << 20, size=60000, dtype=np.uint64)
        t0 = time.perf_counter()
        simulate_misses(idx_fast, blocks, 4, per_set_counters=False)
        fast_t = time.perf_counter() - t0
        t0 = time.perf_counter()
        reference_misses(idx_ref, blocks, 4)
        ref_t = time.perf_counter() - t0
        assert fast_t < ref_t
