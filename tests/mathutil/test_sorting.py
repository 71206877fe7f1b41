"""The 16-bit radix argsort against numpy's stable int64 argsort."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hashing import reuse_distances
from repro.mathutil import radix_argsort


def stable_order(values):
    return np.argsort(np.asarray(values, dtype=np.int64), kind="stable")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, (1 << 63) - 1), max_size=64))
def test_matches_the_stable_int64_argsort(values):
    order = radix_argsort(np.asarray(values, dtype=np.int64))
    assert order.tolist() == stable_order(values).tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 70000), max_size=300),
       st.sampled_from([np.int64, np.uint64]))
def test_ties_keep_their_order_across_the_16_bit_boundary(values, dtype):
    """Values at and above 2**16 take the multi-pass path, which must
    keep equal keys in input order like the one-pass path does."""
    order = radix_argsort(np.asarray(values, dtype=dtype))
    assert order.tolist() == stable_order(values).tolist()


@given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=50))
def test_a_known_bound_gives_the_same_order(values):
    array = np.asarray(values, dtype=np.int64)
    assert (radix_argsort(array, hi=int(array.max())).tolist()
            == radix_argsort(array).tolist())


def test_empty_and_single_inputs():
    empty = radix_argsort(np.empty(0, dtype=np.int64))
    assert empty.dtype == np.intp and empty.size == 0
    assert radix_argsort(np.array([7])).tolist() == [0]
    assert radix_argsort(np.array([1 << 40])).tolist() == [0]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1 << 17), max_size=200))
def test_reuse_distances_match_the_comparison_sort(sets):
    """Eq. 2's distances, read through the radix order, equal the ones
    the stable comparison sort gives, and stay int64."""
    array = np.asarray(sets, dtype=np.int64)
    distances = reuse_distances(array)
    assert distances.dtype == np.int64
    if len(array) < 2:
        assert distances.size == 0
        return
    order = stable_order(array)
    same = array[order][:-1] == array[order][1:]
    assert distances.tolist() == np.diff(order)[same].tolist()
