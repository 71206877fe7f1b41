"""Unified simulation engine.

One layer every figure, table, ablation and benchmark flows through:

* :class:`SimulationKey` — content-addresses a run by (workload, scale,
  seed, scheme, skew replacement, machine fingerprint, schema version).
* :class:`ResultCache` — persistent JSON + npz store under a
  configurable ``.repro-cache/`` directory with hash-based
  invalidation.
* :class:`TraceMaterializer` — each workload trace is generated once
  per grid and shared across schemes.
* :class:`SimulationEngine` — memoization + persistence + a process
  pool scheduled by workload.
* :class:`ExperimentSpec` / :func:`register` / :func:`run_experiment` —
  the declarative experiment registry behind
  ``python -m repro.experiments <name>`` and the shared artifact
  schema.
"""

from repro.engine.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.engine.key import (
    RESULT_SCHEMA_VERSION,
    RunConfig,
    SimulationKey,
    machine_fingerprint,
)
from repro.engine.materialize import TraceMaterializer
from repro.engine.registry import (
    ARTIFACT_SCHEMA_VERSION,
    ExperimentContext,
    ExperimentSpec,
    all_experiment_names,
    get_experiment,
    register,
    render_artifact,
    run_experiment,
    validate_artifact,
)
from repro.engine.runner import SimulationEngine

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "ExperimentContext",
    "ExperimentSpec",
    "RESULT_SCHEMA_VERSION",
    "ResultCache",
    "RunConfig",
    "SimulationEngine",
    "SimulationKey",
    "TraceMaterializer",
    "all_experiment_names",
    "get_experiment",
    "machine_fingerprint",
    "register",
    "render_artifact",
    "run_experiment",
    "validate_artifact",
]
