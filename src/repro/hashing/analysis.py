"""Hashing-quality metrics from Section 2 of the paper.

*Balance* (Equation 1) measures how evenly a hashing function spreads a
set of distinct addresses over the cache sets — 1.0 is ideal, larger is
worse.  *Concentration* (Equation 2) measures how evenly the sets are
revisited over time — 0.0 is ideal.  The paper's pathological-behavior
analysis rests entirely on these two numbers, plus the *sequence
invariance* property (Property 2) that separates pMod from XOR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hashing.base import IndexingFunction
from repro.mathutil import radix_argsort


def access_counts(indexing: IndexingFunction, block_addresses: np.ndarray) -> np.ndarray:
    """Per-set access counts ``b_j`` for a sequence of block addresses."""
    sets = indexing.index_array(np.asarray(block_addresses, dtype=np.uint64))
    return np.bincount(sets, minlength=indexing.n_sets)


def balance_from_counts(counts: np.ndarray, n_accesses: int = None) -> float:
    """Balance (Equation 1) from per-set address counts ``b_j``.

    ``balance = Σ b_j(b_j+1)/2  /  [m/(2·n_set) · (m + 2·n_set − 1)]``

    where ``m`` is the number of (distinct) addresses and ``n_set`` the
    number of sets.  1.0 is the value a perfectly even distribution
    attains; higher means more clustered.
    """
    counts = np.asarray(counts, dtype=np.float64)
    n_set = len(counts)
    if n_set == 0:
        raise ValueError("counts must be non-empty")
    m = float(counts.sum()) if n_accesses is None else float(n_accesses)
    if m <= 0:
        raise ValueError("need at least one access to compute balance")
    numerator = float((counts * (counts + 1.0) / 2.0).sum())
    denominator = m / (2.0 * n_set) * (m + 2.0 * n_set - 1.0)
    return numerator / denominator


def balance(indexing: IndexingFunction, block_addresses: np.ndarray) -> float:
    """Balance of ``indexing`` over a sequence of distinct block addresses."""
    counts = access_counts(indexing, block_addresses)
    return balance_from_counts(counts, n_accesses=len(block_addresses))


def reuse_distances(set_sequence: np.ndarray) -> np.ndarray:
    """Distances ``d_i`` between successive accesses to the same set.

    ``d_i`` is defined for every access that has a later access mapping
    to the same set; the final access to each set has no successor and
    contributes no distance (the paper's formula assumes an unbounded
    sequence; this is the standard finite-sequence reading).  Set
    indices are non-negative.
    """
    sets = np.asarray(set_sequence, dtype=np.int64)
    if len(sets) < 2:
        return np.empty(0, dtype=np.int64)
    order = radix_argsort(sets)
    sorted_sets = sets[order]
    gaps = np.diff(order).astype(np.int64, copy=False)
    same_set = sorted_sets[:-1] == sorted_sets[1:]
    return gaps[same_set]


def concentration_from_sets(set_sequence: np.ndarray, n_sets: int) -> float:
    """Concentration (Equation 2) from a sequence of set indices.

    ``concentration = sqrt( Σ (d_i − n_set)² / m )`` — the RMS deviation
    of the revisit distances from their ideal value ``n_set``.  Zero is
    ideal; it penalizes both bursts (d < n_set) and droughts (d > n_set).
    """
    distances = reuse_distances(set_sequence)
    if len(distances) == 0:
        return 0.0
    dev = distances.astype(np.float64) - float(n_sets)
    return float(np.sqrt(np.mean(dev * dev)))


def concentration(indexing: IndexingFunction, block_addresses: np.ndarray) -> float:
    """Concentration of ``indexing`` over a block-address sequence."""
    sets = indexing.index_array(np.asarray(block_addresses, dtype=np.uint64))
    return concentration_from_sets(sets, indexing.n_sets)


def strided_addresses(stride: int, count: int, base: int = 0) -> np.ndarray:
    """The strided block-address sequence used by Figures 5 and 6."""
    if stride == 0:
        raise ValueError("stride must be non-zero")
    if count <= 0:
        raise ValueError("count must be positive")
    return (np.uint64(base) + np.arange(count, dtype=np.uint64) * np.uint64(stride))


def sequence_invariance_violations(
    indexing: IndexingFunction, block_addresses: np.ndarray
) -> int:
    """Count violations of Property 2 (sequence invariance) on a sequence.

    For every pair ``(i, j)`` of consecutive same-set accesses,
    invariance requires the *next* accesses to also collide:
    ``H(a_i) = H(a_j)  ⇒  H(a_{i+1}) = H(a_{j+1})``.  Returns how many
    such pairs break the implication.  A sequence-invariant function
    (traditional, pMod) returns 0 on any sequence.
    """
    addrs = np.asarray(block_addresses, dtype=np.uint64)
    sets = indexing.index_array(addrs)
    if len(sets) < 3:
        return 0
    order = radix_argsort(sets)
    sorted_sets = sets[order]
    same_set = sorted_sets[:-1] == sorted_sets[1:]
    i_pos = order[:-1][same_set]
    j_pos = order[1:][same_set]
    # Successor pairs must exist for both accesses.
    valid = j_pos < len(sets) - 1
    i_next = i_pos[valid] + 1
    j_next = j_pos[valid] + 1
    return int(np.count_nonzero(sets[i_next] != sets[j_next]))


def is_sequence_invariant(
    indexing: IndexingFunction, block_addresses: np.ndarray
) -> bool:
    """True when no access pair violates sequence invariance on the input."""
    return sequence_invariance_violations(indexing, block_addresses) == 0


@dataclass(frozen=True)
class UniformityReport:
    """Result of the paper's Section 4 uniformity classification."""

    ratio: float  #: stdev(f_i) / mean(f_i) over L2 set access counts
    threshold: float  #: classification threshold (paper: 0.5)

    @property
    def non_uniform(self) -> bool:
        """True when the application counts as having non-uniform accesses."""
        return self.ratio > self.threshold


def uniformity(counts: np.ndarray, threshold: float = 0.5) -> UniformityReport:
    """Classify a set-access histogram as uniform or non-uniform.

    The paper calls an application *non-uniform* when the coefficient of
    variation of its per-set L2 access frequencies exceeds 0.5; those
    applications are the ones expected to gain from better hashing.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if len(counts) == 0:
        raise ValueError("counts must be non-empty")
    mean = counts.mean()
    if mean == 0:
        raise ValueError("need at least one access to classify uniformity")
    return UniformityReport(ratio=float(counts.std() / mean), threshold=threshold)


def chi_square_uniformity(counts: np.ndarray) -> float:
    """p-value of a chi-square test against a uniform set distribution.

    A statistically rigorous companion to the paper's stdev/mean rule:
    small p-values reject "the accesses are spread uniformly".  Note
    that with the access counts real workloads produce, even tiny
    imbalances are significant — the paper's 0.5 threshold asks about
    *magnitude*, this asks about *existence*; report both.
    """
    from scipy import stats

    counts = np.asarray(counts, dtype=np.float64)
    if len(counts) < 2:
        raise ValueError("need at least two sets")
    if counts.sum() <= 0:
        raise ValueError("need at least one access")
    return float(stats.chisquare(counts).pvalue)
