"""Tests for the synthetic stream builders."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.trace import pointer_chase, strided_stream, write_mask


class TestStridedStream:
    def test_basic(self):
        assert strided_stream(100, 8, 3).tolist() == [100, 108, 116]

    def test_repeats(self):
        s = strided_stream(0, 4, 2, repeats=3)
        assert s.tolist() == [0, 4, 0, 4, 0, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            strided_stream(0, 4, 0)
        with pytest.raises(ValueError):
            strided_stream(0, 4, 4, repeats=0)


class TestPointerChase:
    def test_deterministic(self):
        a = pointer_chase(100, 64, 1000, seed=1)
        b = pointer_chase(100, 64, 1000, seed=1)
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = pointer_chase(100, 64, 1000, seed=1)
        b = pointer_chase(100, 64, 1000, seed=2)
        assert not np.array_equal(a, b)

    def test_node_alignment(self):
        chase = pointer_chase(100, 64, 1000, seed=1, base=4096)
        assert np.all(chase % 64 == 0)
        assert np.all(chase >= 4096)

    def test_region_skew_shrinks_footprint(self):
        wide = pointer_chase(1000, 64, 5000, seed=1, region_skew=0.0)
        narrow = pointer_chase(1000, 64, 5000, seed=1, region_skew=0.9)
        assert len(np.unique(narrow)) < len(np.unique(wide))

    def test_validation(self):
        with pytest.raises(ValueError):
            pointer_chase(0, 64, 100, seed=1)
        with pytest.raises(ValueError):
            pointer_chase(10, 64, 100, seed=1, region_skew=1.0)


class TestWriteMask:
    def test_fraction_roughly_respected(self):
        mask = write_mask(100000, 0.3, seed=9)
        assert 0.28 < mask.mean() < 0.32

    def test_deterministic(self):
        assert np.array_equal(write_mask(100, 0.5, 1), write_mask(100, 0.5, 1))

    def test_extremes(self):
        assert not write_mask(100, 0.0, 1).any()
        assert write_mask(100, 1.0, 1).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            write_mask(10, 1.5, 1)
