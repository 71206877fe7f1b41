"""Tests for the shared access-pattern builders."""

import numpy as np
import pytest

from repro.workloads.patterns import (
    L2_BLOCK,
    L2_SETS,
    SET_ALIAS_BYTES,
    adversarial_stride_walk,
    aligned_struct_chase,
    chunked_interleave,
    conflict_column_walk,
    cyclic_sweep,
    page_resident_nodes,
    shuffled_cycles,
    streaming_arrays,
)


class TestGeometryConstants:
    def test_paper_l2(self):
        assert L2_SETS == 2048 and L2_BLOCK == 64
        assert SET_ALIAS_BYTES == 128 * 1024


class TestConflictColumnWalk:
    def test_column_blocks_alias_one_set(self):
        walk = conflict_column_walk(n_rows=4, n_cols=2, repeats=1)
        blocks = walk >> np.uint64(6)
        col0 = blocks[:4]
        assert len({int(b) % L2_SETS for b in col0}) == 1

    def test_repeats_revisit(self):
        walk = conflict_column_walk(n_rows=3, n_cols=1, repeats=2)
        assert np.array_equal(walk[:3], walk[3:6])

    def test_length(self):
        walk = conflict_column_walk(n_rows=4, n_cols=3, repeats=2)
        assert len(walk) == 4 * 3 * 2


class TestCyclicSweep:
    def test_contiguous_default(self):
        sweep = cyclic_sweep(4, 1)
        assert sweep.tolist() == [0, 64, 128, 192]

    def test_permutation_preserves_blocks(self):
        plain = cyclic_sweep(100, 1)
        permuted = cyclic_sweep(100, 1, permute_seed=5)
        assert sorted(permuted.tolist()) == sorted(plain.tolist())

    def test_scatter_draws_distinct_blocks(self):
        sweep = cyclic_sweep(500, 1, scatter_seed=7)
        assert len(np.unique(sweep)) == 500

    def test_scatter_spread_exceeds_contiguous(self):
        scattered = cyclic_sweep(500, 1, scatter_seed=7)
        assert int(scattered.max()) > 500 * L2_BLOCK

    def test_stride_blocks(self):
        sweep = cyclic_sweep(3, 1, stride_blocks=2)
        assert sweep.tolist() == [0, 128, 256]

    def test_repeats(self):
        sweep = cyclic_sweep(5, 3, permute_seed=1)
        assert np.array_equal(sweep[:5], sweep[5:10])


class TestShuffledCycles:
    def test_each_epoch_visits_every_block_once(self):
        out = shuffled_cycles(10, 20, seed=3)
        blocks = (out >> np.uint64(6)).reshape(2, 10)
        for epoch in blocks:
            assert sorted(epoch.tolist()) == list(range(10))

    def test_epochs_differ(self):
        out = shuffled_cycles(50, 100, seed=3)
        assert not np.array_equal(out[:50], out[50:])

    def test_validation(self):
        with pytest.raises(ValueError):
            shuffled_cycles(0, 10, seed=1)


class TestAdversarialStrideWalk:
    def test_groups_cover_requested_count(self):
        walk = adversarial_stride_walk(2039 * 128, 4, 1000, groups=8,
                                       repeats_per_group=2)
        assert len(walk) == 1000

    def test_within_group_stride(self):
        walk = adversarial_stride_walk(100, 3, 9, groups=1,
                                       repeats_per_group=1)
        blocks = walk >> np.uint64(6)
        assert blocks[1] - blocks[0] == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            adversarial_stride_walk(100, 0, 10)


class TestChunkedInterleave:
    def test_preserves_order_within_stream(self):
        a = np.arange(10, dtype=np.uint64)
        b = np.arange(100, 110, dtype=np.uint64)
        out = chunked_interleave([a, b], chunk=4)
        a_out = [x for x in out if x < 100]
        assert a_out == sorted(a_out)

    def test_all_elements_present(self):
        a = np.arange(7, dtype=np.uint64)
        b = np.arange(100, 103, dtype=np.uint64)
        out = chunked_interleave([a, b], chunk=2)
        assert sorted(out.tolist()) == sorted(a.tolist() + b.tolist())

    def test_validation(self):
        with pytest.raises(ValueError):
            chunked_interleave([])
        with pytest.raises(ValueError):
            chunked_interleave([np.arange(3, dtype=np.uint64)], chunk=0)


class TestStreamingArrays:
    def test_no_block_revisits_within_window(self):
        out = streaming_arrays(1, 1024 * 1024, 1000, element_bytes=64)
        assert len(np.unique(out >> np.uint64(6))) == 1000

    def test_set_coverage_uniform_in_short_window(self):
        """The hop order must load sets evenly even for short traces."""
        out = streaming_arrays(2, 1024 * 1024, 6000, element_bytes=64)
        sets = (out >> np.uint64(6)) % np.uint64(L2_SETS)
        counts = np.bincount(sets.astype(int), minlength=L2_SETS)
        assert counts.std() / counts.mean() < 0.8

    def test_random_order_visits_blocks_once(self):
        out = streaming_arrays(1, 256 * 1024, 2000, element_bytes=64,
                               order_seed=5)
        assert len(np.unique(out >> np.uint64(6))) == 2000

    def test_element_granularity(self):
        out = streaming_arrays(1, 1024 * 1024, 8, element_bytes=8)
        # 8 consecutive elements share one block.
        assert len(np.unique(out >> np.uint64(6))) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            streaming_arrays(0, 1024, 10)
        with pytest.raises(ValueError):
            streaming_arrays(1, 1024, 0)
        with pytest.raises(ValueError):
            streaming_arrays(1, 32, 10)


class TestNodePatterns:
    def test_page_resident_nodes_stay_in_front(self):
        nodes = page_resident_nodes(10, 256, 1000, seed=2)
        offsets = nodes % np.uint64(4096)
        assert int(offsets.max()) < 256

    def test_page_resident_validation(self):
        with pytest.raises(ValueError):
            page_resident_nodes(10, 8192, 100, seed=1, page_bytes=4096)

    def test_aligned_struct_chase_alignment(self):
        chase = aligned_struct_chase(100, 256, 1000, seed=4)
        assert np.all(chase % 256 == 0)

    def test_aligned_struct_chase_rejects_misaligned(self):
        with pytest.raises(ValueError):
            aligned_struct_chase(100, 100, 10, seed=1)
