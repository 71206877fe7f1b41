"""L2-geometry-aware access-pattern builders shared by the workloads.

These wrap the raw generators of :mod:`repro.trace.synthetic` with the
paper's cache geometry (2048 L2 sets of 64-byte lines) so that each
workload module can say *what it means* — "a conflict-aligned column
walk", "an over-capacity cyclic sweep" — instead of repeating address
arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.trace.synthetic import pointer_chase, strided_stream

#: Paper L2 geometry (Table 3): 512 KB, 4-way, 64 B lines.
L2_BLOCK = 64
L2_SETS = 2048
L2_WAYS = 4
L2_BLOCKS = L2_SETS * L2_WAYS
#: Byte distance between blocks mapping to the same traditional L2 set.
SET_ALIAS_BYTES = L2_SETS * L2_BLOCK  # 128 KB


def conflict_column_walk(
    n_rows: int, n_cols: int, repeats: int, base: int = 0
) -> np.ndarray:
    """Column-major walk of a matrix whose row pitch aliases L2 sets.

    Every element of a column maps to the *same* traditional set, so a
    column of more than ``L2_WAYS`` rows thrashes — the access structure
    of the NAS block solvers (bt, sp) and of FFT butterflies operating
    on power-of-two-pitched planes.
    """
    columns = []
    for c in range(n_cols):
        columns.append(
            strided_stream(base + c * L2_BLOCK, SET_ALIAS_BYTES, n_rows,
                           repeats=repeats)
        )
    return np.concatenate(columns)


def cyclic_sweep(n_blocks: int, repeats: int, base: int = 0,
                 permute_seed: int = None, stride_blocks: int = 1,
                 scatter_seed: int = None) -> np.ndarray:
    """Repeated fixed-order sweep over ``n_blocks`` distinct lines.

    With ``n_blocks`` slightly above the cache capacity this is LRU's
    worst case (every access misses) while pseudo-random replacement
    retains most of the footprint — the behavior that lets skewed
    caches remove "capacity" misses in cg/mst (Section 5.5).

    ``scatter_seed`` draws the footprint from a 4x larger region
    instead of a contiguous range: real heap footprints load the sets
    Poisson-like, where a contiguous range puts *exactly* ``floor`` or
    ``ceil`` blocks in every set — a knife-edge that makes results
    flip unrealistically with the set count.
    """
    if scatter_seed is not None:
        rng = np.random.default_rng(scatter_seed)
        blocks = rng.choice(n_blocks * 4, size=n_blocks, replace=False)
        sweep = (np.uint64(base)
                 + np.sort(blocks).astype(np.uint64)
                 * np.uint64(stride_blocks * L2_BLOCK))
    else:
        sweep = strided_stream(base, stride_blocks * L2_BLOCK, n_blocks)
    if permute_seed is not None:
        rng = np.random.default_rng(permute_seed)
        sweep = sweep[rng.permutation(n_blocks)]
    return np.tile(sweep, repeats)


def shuffled_cycles(n_blocks: int, count: int, seed: int,
                    base: int = 0) -> np.ndarray:
    """Random-order epochs over a *contiguous* resident footprint.

    Every epoch visits each of the ``n_blocks`` lines exactly once in a
    fresh permutation.  The footprint covers the traditional sets as
    evenly as a contiguous range can (exactly evenly when ``n_blocks``
    is a multiple of the set count), so the histogram stays uniform
    while the access order still looks like hash/dictionary traffic.
    Reuse distance equals the footprint: LRU retains everything that
    fits, and imprecise (pseudo-LRU) replacement pays — the uniform-app
    behavior the skewed caches damage in Figures 10/12.
    """
    if n_blocks <= 0 or count <= 0:
        raise ValueError("n_blocks and count must be positive")
    rng = np.random.default_rng(seed)
    epochs = []
    produced = 0
    blocks = np.arange(n_blocks, dtype=np.uint64)
    while produced < count:
        epochs.append(rng.permutation(blocks))
        produced += n_blocks
    picks = np.concatenate(epochs)[:count]
    return np.uint64(base) + picks * np.uint64(L2_BLOCK)


def adversarial_stride_walk(stride_blocks: int, lines: int, count: int,
                            base: int = 0, groups: int = 64,
                            repeats_per_group: int = 5) -> np.ndarray:
    """Short repeated walks at a hash-adversarial stride, across many
    probe groups (e.g. the diagonals of different matrix panels).

    Used by the sparse workload to plant the paper's two documented
    pathologies: ``stride_blocks = 2039·128`` collapses each group onto
    a single prime-modulo set (pMod's only bad stride, amplified to
    also alias L1 sets so the reuse reaches L2), and ``stride_blocks =
    2049·128`` degenerates the XOR hash the same way.  Traditional and
    pDisp indexing spread both walks, and spreading the groups keeps
    the overall set histogram uniform.
    """
    if lines <= 0 or count <= 0 or groups <= 0 or repeats_per_group <= 0:
        raise ValueError("lines, count, groups and repeats must be positive")
    group_walks = []
    for g in range(groups):
        # Odd block offset between groups spreads them over the sets.
        group_base = base + g * 97 * L2_BLOCK
        group_walks.append(
            strided_stream(group_base, stride_blocks * L2_BLOCK, lines,
                           repeats=repeats_per_group)
        )
    cycle = np.concatenate(group_walks)
    reps = max(1, -(-count // len(cycle)))
    return np.tile(cycle, reps)[:count]


#: Stride (in L2 blocks) that collapses onto one prime-modulo set while
#: aliasing L1 sets: multiples of n_set = 2039 and of 128 blocks (8 KB).
PMOD_BAD_STRIDE_BLOCKS = 2039 * 128
#: Stride that degenerates the XOR hash (t ⊕ x) the same way.
XOR_BAD_STRIDE_BLOCKS = 2049 * 128


def page_resident_nodes(
    n_pages: int,
    hot_bytes_per_page: int,
    count: int,
    seed: int,
    page_bytes: int = 4096,
    base: int = 0,
) -> np.ndarray:
    """Pointer-chase over objects at the *front* of heap pages.

    Allocators that place one object per page (or per power-of-two
    arena) leave only the first few lines of each page hot, so the hot
    blocks occupy a small slice of the traditional index space — the
    source of tree's (and to a lesser degree irr's) set concentration
    (Figure 13a).
    """
    if hot_bytes_per_page > page_bytes:
        raise ValueError("hot region cannot exceed the page")
    rng = np.random.default_rng(seed)
    pages = rng.integers(0, n_pages, size=count, dtype=np.uint64)
    hot_blocks = max(1, hot_bytes_per_page // L2_BLOCK)
    offsets = rng.integers(0, hot_blocks, size=count, dtype=np.uint64)
    return (np.uint64(base) + pages * np.uint64(page_bytes)
            + offsets * np.uint64(L2_BLOCK))


def aligned_struct_chase(
    n_structs: int, struct_bytes: int, count: int, seed: int, base: int = 0
) -> np.ndarray:
    """Pointer-chase over power-of-two-sized structs, touching only the
    first line of each — mcf's node/arc arrays.

    With 256-byte structs the hot lines all satisfy ``block ≡ 0 (mod
    4)``, crowding one quarter of the traditional sets.
    """
    if struct_bytes % L2_BLOCK:
        raise ValueError("struct size must be a multiple of the line size")
    return pointer_chase(n_structs, struct_bytes, count, seed=seed, base=base)


def streaming_arrays(
    n_arrays: int, array_bytes: int, count: int, base: int = 0,
    element_bytes: int = 8, hop_blocks: int = 37, order_seed: int = None,
) -> np.ndarray:
    """Round-robin streaming sweeps over several large arrays.

    The classic dense-FP pattern (swim, tomcatv, applu): element-level
    accesses walk each array without revisiting a cache block — pure
    compulsory misses no indexing scheme can remove.  Blocks are
    visited in a ``hop_blocks``-strided order (coprime with the array
    length) so even a short trace window loads every cache set evenly;
    within a block, elements stay sequential, so a small
    ``element_bytes`` lets the L1 absorb most of the traffic.
    """
    if n_arrays < 1:
        raise ValueError("need at least one array")
    if count < 1:
        raise ValueError("count must be positive")
    if array_bytes < L2_BLOCK:
        raise ValueError("arrays must span at least one block")
    per_array = count // n_arrays + 1
    elements_per_block = max(1, L2_BLOCK // element_bytes)
    blocks_in_array = array_bytes // L2_BLOCK
    hop = hop_blocks
    while np.gcd(hop, blocks_in_array) != 1:
        hop += 2  # ensure full coverage before any block repeats
    j = np.arange(per_array, dtype=np.uint64)
    offsets = (j % np.uint64(elements_per_block)) \
        * np.uint64(min(element_bytes, L2_BLOCK))
    arrays = []
    rng = np.random.default_rng(order_seed) if order_seed is not None else None
    for i in range(n_arrays):
        if rng is None:
            block_order = (j // np.uint64(elements_per_block) * np.uint64(hop)) \
                % np.uint64(blocks_in_array)
        else:
            # Neighbor-list order: each block visited once, in a random
            # per-array permutation.  The resulting cache-fill arrivals
            # are memoryless per set, so the interference they exert is
            # statistically identical under any indexing function —
            # unlike a deterministic sweep, whose insert phase can
            # accidentally favor one modulus over another.
            n_whole = int(per_array) // elements_per_block + 1
            perm = rng.permutation(blocks_in_array)
            reps = max(1, -(-n_whole // blocks_in_array))
            visit = np.tile(perm, reps)[:n_whole].astype(np.uint64)
            block_order = np.repeat(visit, elements_per_block)[: int(per_array)]
        array_base = base + i * (array_bytes + 4096 + i * L2_BLOCK)
        arrays.append(
            np.uint64(array_base) + block_order * np.uint64(L2_BLOCK) + offsets
        )
    stacked = np.stack(arrays, axis=1)
    return stacked.reshape(-1)[:count]


def chunked_interleave(streams, chunk: int = 256) -> np.ndarray:
    """Interleave streams in ``chunk``-sized runs, preserving each
    stream's internal order.

    Loop nests alternate between access patterns at the granularity of
    inner loops, not per-access; coarse interleaving keeps each
    component's temporal reuse intact while letting them share the
    cache, which per-element interleaving would distort.
    """
    if not streams:
        raise ValueError("need at least one stream")
    if chunk < 1:
        raise ValueError("chunk must be positive")
    pieces = []
    offsets = [0] * len(streams)
    remaining = sum(len(s) for s in streams)
    while remaining > 0:
        for i, stream in enumerate(streams):
            start = offsets[i]
            if start >= len(stream):
                continue
            end = min(start + chunk, len(stream))
            pieces.append(stream[start:end])
            offsets[i] = end
            remaining -= end - start
    return np.concatenate(pieces)
