"""Stable integer argsort in 16-bit radix passes."""

import numpy as np


def radix_argsort(values: np.ndarray, hi: int = None) -> np.ndarray:
    """Stable ascending argsort of non-negative integers.

    numpy's stable sort uses a radix sort for <=16-bit integer keys,
    which is several times faster than the comparison sort it falls
    back to on wider types; sorting 16 bits per pass keeps that fast
    path for arbitrary integer magnitudes.  ``hi`` is an optional
    known upper bound on the values, saving the max scan.  The order
    is ``int32`` once a value needs more than 16 bits.
    """
    if len(values) == 0:
        return np.empty(0, dtype=np.intp)
    if hi is None:
        hi = int(values.max())
    if hi < 1 << 16:
        return np.argsort(values.astype(np.uint16), kind="stable")
    unsigned = values.astype(np.uint64, copy=False)
    order = np.argsort(unsigned.astype(np.uint16),
                       kind="stable").astype(np.int32)
    shift = 16
    while hi >> shift:
        digits = (unsigned >> np.uint64(shift)).astype(np.uint16)
        order = order[np.argsort(digits[order], kind="stable")]
        shift += 16
    return order
