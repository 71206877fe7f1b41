"""One runnable module per paper table/figure.

========================== ======================================
module                      reproduces
========================== ======================================
``fragmentation``           Table 1 (prime modulo fragmentation)
``qualitative``             Table 2 (hash-function properties)
``machine``                 Table 3 (architecture parameters)
``summary``                 Table 4 (speedup summary)
``stride_sweep``            Figures 5-6 (balance/concentration)
``single_hash``             Figures 7-8 (exec time, single hash)
``multi_hash``              Figures 9-10 (exec time, multi hash)
``miss_reduction``          Figures 11-12 (normalized misses)
``miss_distribution``       Figure 13 (per-set misses, tree)
``uniformity_table``        Section 4's 7-of-23 classification
``l1_hashing``              Section 3.3's L1 example + hierarchy check
``design_space``            indexing x associativity sweep (extension)
``sensitivity``             L2 capacity sweep of the pMod gap (extension)
``page_allocation``         OS page-allocation robustness (extension)
``shared_cache``            multiprogrammed-L2 interference (extension)
``seeds``                   seed-robustness of the headline results
``store_sharding``          sharded KV store balance (extension)
``health``                  SLO burn-rate + drift watchdog drill (extension)
``reshard``                 live prime-ladder reshard contract (extension)
``cluster``                 multi-node loss/recovery drill (extension)
``adversary``               hash cracking vs scheme + keyed rotation (extension)
``federation``              cluster-wide telemetry federation drill (extension)
========================== ======================================

Each module exposes ``run(...)`` and ``render(result)`` and registers
an :class:`~repro.engine.ExperimentSpec`; the one CLI runs any of
them::

    python -m repro.experiments <name> --scale S --seed N \
        --jobs J --cache-dir DIR [--artifact PATH] [--check]

``python -m repro.experiments.<name> ARGS`` hands ARGS to the same
CLI, ``--check`` gates an experiment's ``checks`` block, and
``python -m repro.experiments list`` enumerates the registry.
"""

import importlib

from repro.experiments.common import RunConfig

#: Modules that self-register an ExperimentSpec on import.
EXPERIMENT_MODULES = (
    "fragmentation",
    "qualitative",
    "machine",
    "summary",
    "stride_sweep",
    "single_hash",
    "multi_hash",
    "miss_reduction",
    "miss_distribution",
    "uniformity_table",
    "l1_hashing",
    "l3_hashing",
    "design_space",
    "sensitivity",
    "page_allocation",
    "shared_cache",
    "seeds",
    "store_sharding",
    "serving",
    "health",
    "reshard",
    "cluster",
    "adversary",
    "federation",
)


def load_all_experiments() -> None:
    """Import every experiment module so its spec self-registers.

    Called lazily by the registry (:mod:`repro.engine.registry`) the
    first time an experiment is looked up by name.
    """
    for name in EXPERIMENT_MODULES:
        importlib.import_module(f"repro.experiments.{name}")


__all__ = ["EXPERIMENT_MODULES", "RunConfig", "load_all_experiments"]
