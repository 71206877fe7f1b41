"""Cache models: conventional, skewed, fully associative, and the
write-back hierarchy that chains them (two levels in the paper's
Table 3).
"""

from repro.cache.fastsim import (
    FastSimResult,
    simulate_fully_associative_misses,
    simulate_misses,
)
from repro.cache.fully import FullyAssociativeCache
from repro.cache.hierarchy import CacheHierarchy, HierarchyOutcome
from repro.cache.replacement import (
    FIFOPolicy,
    LRUPolicy,
    NRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    TreePLRUPolicy,
    make_replacement,
)
from repro.cache.setassoc import AccessResult, SetAssociativeCache
from repro.cache.skewed import (
    BankVictimPolicy,
    EnruPolicy,
    NrunrwPolicy,
    PlainNruPolicy,
    SkewedAssociativeCache,
)
from repro.cache.stats import CacheStats
from repro.cache.victim import VictimCache

__all__ = [
    "AccessResult",
    "BankVictimPolicy",
    "CacheHierarchy",
    "CacheStats",
    "EnruPolicy",
    "FIFOPolicy",
    "FastSimResult",
    "FullyAssociativeCache",
    "HierarchyOutcome",
    "LRUPolicy",
    "NRUPolicy",
    "NrunrwPolicy",
    "PlainNruPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "SetAssociativeCache",
    "SkewedAssociativeCache",
    "TreePLRUPolicy",
    "VictimCache",
    "make_replacement",
    "simulate_fully_associative_misses",
    "simulate_misses",
]
