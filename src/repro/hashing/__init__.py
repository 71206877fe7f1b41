"""Cache indexing (hashing) functions — the paper's core contribution.

Single-hash functions (used by a conventional set-associative cache):

* :class:`TraditionalIndexing` — low index bits (the paper's *Base*).
* :class:`XorIndexing` — ``t ⊕ x`` pseudo-random hashing.
* :class:`PrimeModuloIndexing` — modulo a prime set count (*pMod*).
* :class:`PrimeDisplacementIndexing` — tag-displaced index (*pDisp*).

Multi-hash families (used by a skewed associative cache):

* :class:`SkewedXorFamily` — Seznec's circular-shift XOR (*SKW*).
* :class:`SkewedPrimeDisplacementFamily` — per-bank displacement
  constants (*skw+pDisp*).

Quality metrics from Section 2 live in :mod:`repro.hashing.analysis`.
"""

from repro.hashing.analysis import (
    UniformityReport,
    access_counts,
    balance,
    balance_from_counts,
    chi_square_uniformity,
    concentration,
    concentration_from_sets,
    is_sequence_invariant,
    reuse_distances,
    sequence_invariance_violations,
    strided_addresses,
    uniformity,
)
from repro.hashing.base import (
    INDEXINGS,
    BankIndexingFamily,
    IndexingFunction,
    available_indexings,
    make_indexing,
)
from repro.hashing.keyed import (
    DEFAULT_KEY,
    KeyedDisplacementIndexing,
    KeyedMersenneIndexing,
    MERSENNE_EXPONENT,
    MERSENNE_PRIME,
    derive_constants,
    mersenne_fold,
)
from repro.hashing.prime_displacement import (
    DEFAULT_DISPLACEMENT,
    PrimeDisplacementIndexing,
)
from repro.hashing.related import (
    FIBONACCI_MULTIPLIER_64,
    GF2PolynomialIndexing,
    MultiplicativeIndexing,
    XorFoldIndexing,
)
from repro.hashing.prime_modulo import PrimeModuloIndexing
from repro.hashing.skew_analysis import (
    ConflictGroup,
    DispersionReport,
    inter_bank_dispersion,
    top_conflict_sets,
)
from repro.hashing.spectrum import (
    StrideComponent,
    recommend_indexing,
    score_indexings,
    stride_spectrum,
)
from repro.hashing.skewed import (
    PAPER_BANK_DISPLACEMENTS,
    SkewedPrimeDisplacementFamily,
    SkewedXorFamily,
)
from repro.hashing.traditional import TraditionalIndexing
from repro.hashing.xor import XorIndexing

__all__ = [
    "BankIndexingFamily",
    "ConflictGroup",
    "DEFAULT_DISPLACEMENT",
    "DEFAULT_KEY",
    "DispersionReport",
    "FIBONACCI_MULTIPLIER_64",
    "GF2PolynomialIndexing",
    "INDEXINGS",
    "IndexingFunction",
    "KeyedDisplacementIndexing",
    "KeyedMersenneIndexing",
    "MERSENNE_EXPONENT",
    "MERSENNE_PRIME",
    "MultiplicativeIndexing",
    "XorFoldIndexing",
    "PAPER_BANK_DISPLACEMENTS",
    "PrimeDisplacementIndexing",
    "PrimeModuloIndexing",
    "SkewedPrimeDisplacementFamily",
    "SkewedXorFamily",
    "StrideComponent",
    "TraditionalIndexing",
    "UniformityReport",
    "XorIndexing",
    "access_counts",
    "available_indexings",
    "balance",
    "balance_from_counts",
    "chi_square_uniformity",
    "concentration",
    "concentration_from_sets",
    "derive_constants",
    "inter_bank_dispersion",
    "is_sequence_invariant",
    "make_indexing",
    "mersenne_fold",
    "recommend_indexing",
    "reuse_distances",
    "score_indexings",
    "stride_spectrum",
    "top_conflict_sets",
    "sequence_invariance_violations",
    "strided_addresses",
    "uniformity",
]
