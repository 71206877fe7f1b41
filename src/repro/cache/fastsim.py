"""Fast miss-only simulation for single-hash LRU caches.

The cycle-level model in :class:`~repro.cache.setassoc.SetAssociativeCache`
pays Python-object overhead on every access.  When only one level's
hit/miss counts are needed — the ``sensitivity`` and
``page_allocation`` extensions; the suite's ``cache.fastsim`` rung and
two benches time it — this path is far faster: it exploits the fact
that LRU is a *stack algorithm*, so hit/miss outcomes are a pure
function of the access sequence and need no simulated cache state.

An access to block ``b`` in set ``s`` hits a ``W``-way LRU cache iff
fewer than ``W`` *distinct* other blocks of ``s`` were touched since
the previous access to ``b`` (and ``b`` was touched before).  The
vectorized path computes, entirely in numpy:

1. the set index of every access (one ``index_array`` call);
2. each access's set-local position and its previous/next occurrence
   (two stable argsorts);
3. the distinct-block count of each reuse window, counted as the
   intervening accesses whose *next* occurrence falls at or beyond the
   current access — evaluated only for the ambiguous windows (those
   with at least ``W`` intervening accesses; shorter windows are hits
   by construction), batched by window length.

Equivalence with the reference model is property-tested — the original
pure-Python loop survives as :func:`simulate_misses_reference` and any
divergence is a bug in one of the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

from repro.hashing.base import IndexingFunction
from repro.mathutil import radix_argsort
from repro.obs import get_registry

#: Cap on the scratch matrix used by one windowed-count batch.
_BATCH_ELEMENT_LIMIT = 1 << 22


@dataclass(frozen=True)
class FastSimResult:
    """Counters produced by a fast simulation run.

    ``set_accesses`` / ``set_misses`` are None when the run was asked
    not to keep per-set counters (``per_set_counters=False``).
    """

    accesses: int
    misses: int
    set_accesses: Optional[np.ndarray]
    set_misses: Optional[np.ndarray]

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


def _lru_miss_mask(blocks: np.ndarray, sets: np.ndarray,
                   assoc: int, smax: int = None) -> np.ndarray:
    """Boolean per-access miss mask of a W-way LRU set-associative cache.

    ``smax`` is an optional known upper bound on the set indices
    (``n_sets - 1``), saving a max scan.
    """
    n = len(blocks)
    if n == 0:
        return np.zeros(0, dtype=bool)
    if n >= 1 << 30:  # 2*n coordinates must stay within int32
        raise ValueError("trace too long for the int32 fast path")
    arange = np.arange(n, dtype=np.int32)

    # Set-local position of every access: a stable sort by set lays the
    # trace out set-major while preserving time order within each set,
    # and subtracting each set's first layout position localizes it.
    skey = np.asarray(sets)
    if smax is None:
        smax = int(skey.max())
    order = radix_argsort(skey, hi=smax)
    ordered_sets = (skey.astype(np.uint16)[order]
                    if smax < 1 << 16 else skey[order])
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(ordered_sets[1:], ordered_sets[:-1], out=boundary[1:])
    pos_in_layout = np.empty(n, dtype=np.int32)
    pos_in_layout[order] = arange
    group_firsts = arange[boundary]
    set_first = np.empty(smax + 1, dtype=np.int32)
    set_first[ordered_sets[boundary]] = group_firsts
    local = pos_in_layout - set_first[skey]
    # the largest set population bounds every set-local index
    max_group = int(np.diff(group_firsts, append=np.int32(n)).max())

    # Previous access of the same block (same set by construction):
    # prev[i] = -1 when block i was never touched before.  The matching
    # next-occurrence links are scattered straight into the window
    # layout further down instead of materializing a full nxt array.
    border = radix_argsort(blocks)
    ordered_blocks = blocks[border]
    same = np.flatnonzero(ordered_blocks[1:] == ordered_blocks[:-1])
    earlier = border[same]
    later = border[same + 1]
    prev = np.full(n, -1, dtype=np.int32)
    prev[later] = earlier

    # Reuse window of a warm access: the set-local gap between its
    # previous occurrence and itself.  Fewer than W intervening
    # accesses cannot contain W distinct blocks -> guaranteed hit.
    # (prev == -1 wraps the gather to the last element; the warm mask
    # discards those lanes.)
    gap = local - local[prev]
    ambiguous = np.flatnonzero((gap > assoc) & (prev >= 0))
    miss = prev < 0  # cold accesses always miss
    if ambiguous.size == 0:
        return miss
    if assoc == 1:
        # Any non-empty window contains >=1 distinct block: the access
        # right before this one in the set has its next occurrence at
        # or beyond it by construction.
        miss[ambiguous] = True
        return miss

    # Distinct blocks in a window == intervening accesses whose next
    # occurrence (in set-local coordinates) falls at or beyond the
    # current access.
    #
    # Lay the trace out set-major with each set's block of the layout
    # followed by padding of its own size, which makes the padded
    # coordinate of an access simply ``2*pos - local``.  A window read
    # that overruns its end then lands either on a later access of the
    # *same* set (its next-local exceeds its own local, which exceeds
    # the threshold, so it always counts) or on sentinel padding (also
    # counts) — never on another set — so the overrun contributes
    # exactly ``width - length`` and the per-element window mask
    # disappears into a subtraction.
    # Sort the ambiguous windows by length up front so the batched
    # scans below slice contiguous ranges.
    prev_amb = prev[ambiguous]
    by_length = radix_argsort(pos_in_layout[ambiguous]
                              - pos_in_layout[prev_amb])
    amb = ambiguous[by_length]
    prev_amb = prev_amb[by_length]
    padded = 2 * pos_in_layout - local
    starts = padded[prev_amb] + np.int32(1)
    lengths = pos_in_layout[amb] - pos_in_layout[prev_amb] - np.int32(1)
    max_len = int(lengths[-1])

    # Window values are next-occurrence set-local positions; uint16
    # cells halve gather bandwidth when every set-local index fits.
    next_locals = local[later]
    if max_group <= 0xFFFF:
        cell = np.uint16
        sentinel = 0xFFFF
    else:
        cell = np.int32
        sentinel = np.iinfo(np.int32).max
    layout = np.full(2 * n + max_len, sentinel, dtype=cell)
    layout[padded[earlier]] = next_locals.astype(cell, copy=False)
    thresholds = local[amb].astype(cell)

    # Scan in chunks, each chunk's width capped at 1.25x its shortest
    # length: a window's overrun then stays shorter than the window
    # itself, hence inside its set's padding.
    amb_miss = np.empty(amb.size, dtype=bool)
    m = amb.size
    cols = np.arange(max_len, dtype=np.int32)
    index_buf = np.empty(_BATCH_ELEMENT_LIMIT, dtype=np.int32)
    window_buf = np.empty(_BATCH_ELEMENT_LIMIT, dtype=cell)
    closes_buf = np.empty(_BATCH_ELEMENT_LIMIT, dtype=bool)
    lo = 0
    while lo < m:
        shortest = int(lengths[lo])
        hi = min(lo + max(_BATCH_ELEMENT_LIMIT // shortest, 1), m)
        hi = int(np.searchsorted(lengths[:hi],
                                 shortest + (shortest >> 2), "right"))
        hi = max(hi, lo + 1)
        width = int(lengths[hi - 1])
        hi = min(lo + max(_BATCH_ELEMENT_LIMIT // width, 1), hi)
        width = int(lengths[hi - 1])
        rows = hi - lo
        indices = index_buf[:rows * width].reshape(rows, width)
        np.add(starts[lo:hi, None], cols[:width], out=indices)
        windows = window_buf[:rows * width].reshape(rows, width)
        np.take(layout, indices, out=windows)
        closes = closes_buf[:rows * width].reshape(rows, width)
        np.greater_equal(windows, thresholds[lo:hi, None], out=closes)
        counts = np.count_nonzero(closes, axis=1)
        # true distinct count = counts - (width - length); miss iff
        # that reaches the associativity
        amb_miss[lo:hi] = counts >= (assoc + width) - lengths[lo:hi]
        lo = hi
    miss[amb] = amb_miss
    return miss


def simulate_misses(
    indexing: IndexingFunction,
    block_addresses: np.ndarray,
    assoc: int,
    per_set_counters: bool = True,
) -> FastSimResult:
    """LRU set-associative miss counts for a block-address stream.

    Vectorized; bit-identical to driving the stream through
    :class:`~repro.cache.setassoc.SetAssociativeCache` with LRU
    replacement (see :func:`simulate_misses_reference`).

    Observability lives only at this boundary (one counter and one
    wall-time observation per *call*, nothing per access), and only
    when the registry is enabled; ``benchmarks/bench_obs_overhead.py``
    guards the disabled path at <2% over the bare core.
    """
    registry = get_registry()
    if not registry.enabled:
        return _simulate_misses_core(indexing, block_addresses, assoc,
                                     per_set_counters)
    start = perf_counter()
    result = _simulate_misses_core(indexing, block_addresses, assoc,
                                   per_set_counters)
    registry.counter("fastsim.calls").inc()
    registry.histogram("fastsim.wall_s").observe(perf_counter() - start)
    return result


def _simulate_misses_core(
    indexing: IndexingFunction,
    block_addresses: np.ndarray,
    assoc: int,
    per_set_counters: bool = True,
) -> FastSimResult:
    """The uninstrumented simulation body (also the overhead-guard
    baseline)."""
    if assoc < 1:
        raise ValueError("associativity must be positive")
    blocks = np.ascontiguousarray(block_addresses, dtype=np.uint64)
    if blocks.ndim != 1:
        raise ValueError("block addresses must be one-dimensional")
    n_sets = indexing.n_sets
    if len(blocks) == 0:
        empty = np.zeros(n_sets, dtype=np.int64) if per_set_counters else None
        return FastSimResult(0, 0, empty,
                             empty.copy() if per_set_counters else None)
    sets = np.asarray(indexing.index_array(blocks), dtype=np.int64)
    miss = _lru_miss_mask(blocks, sets, assoc, smax=n_sets - 1)
    set_accesses = set_misses = None
    if per_set_counters:
        set_accesses = np.bincount(sets, minlength=n_sets)
        set_misses = np.bincount(sets[miss], minlength=n_sets)
    return FastSimResult(
        accesses=len(blocks),
        misses=int(np.count_nonzero(miss)),
        set_accesses=set_accesses,
        set_misses=set_misses,
    )


def simulate_misses_reference(
    indexing: IndexingFunction,
    block_addresses: np.ndarray,
    assoc: int,
    per_set_counters: bool = True,
) -> FastSimResult:
    """The original per-access Python loop; the equivalence oracle.

    Kept as the property-test reference for :func:`simulate_misses`
    and as the baseline the vectorized-speedup benchmark compares
    against.
    """
    if assoc < 1:
        raise ValueError("associativity must be positive")
    blocks = np.ascontiguousarray(block_addresses, dtype=np.uint64)
    if blocks.ndim != 1:
        raise ValueError("block addresses must be one-dimensional")
    sets = indexing.index_array(blocks)
    n_sets = indexing.n_sets
    set_accesses = np.zeros(n_sets, dtype=np.int64) if per_set_counters else None
    set_misses = np.zeros(n_sets, dtype=np.int64) if per_set_counters else None

    lru = [[] for _ in range(n_sets)]  # most recent last, length <= assoc
    misses = 0
    for block, set_index in zip(blocks.tolist(), sets.tolist()):
        ways = lru[set_index]
        try:
            ways.remove(block)
        except ValueError:
            misses += 1
            if per_set_counters:
                set_misses[set_index] += 1
            if len(ways) >= assoc:
                del ways[0]
        ways.append(block)
        if per_set_counters:
            set_accesses[set_index] += 1
    return FastSimResult(
        accesses=len(blocks),
        misses=misses,
        set_accesses=set_accesses,
        set_misses=set_misses,
    )

