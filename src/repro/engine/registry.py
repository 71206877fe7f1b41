"""Declarative experiment registry and the shared artifact schema.

Every paper table/figure (and every extension/ablation) registers an
:class:`ExperimentSpec` describing how to *build* a JSON-serializable
artifact from an :class:`ExperimentContext` and how to *render* that
artifact back into the terminal report.  The registry gives all of them
one uniform surface:

* ``python -m repro.experiments <name> --scale --seed --jobs
  --cache-dir`` runs any registered experiment;
* every artifact conforms to one schema (below), so reporting and the
  benchmarks can consume them without per-experiment knowledge;
* rendering is decoupled from running — an artifact loaded from a JSON
  file renders identically to a freshly built one.

Artifact schema (version :data:`ARTIFACT_SCHEMA_VERSION`)::

    {
      "schema_version": 1,
      "experiment": "<registry name>",
      "title": "<human title>",
      "repro_version": "<package version>",
      "config": {"scale": float, "seed": int, "skew_replacement": str,
                 "params": {...every declared --param knob's value...}},
      "data": {...experiment-specific JSON payload...}
    }
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping

import repro
from repro.engine.key import RunConfig, SimulationKey
from repro.engine.runner import SimulationEngine

#: Version of the artifact envelope written by :func:`run_experiment`.
ARTIFACT_SCHEMA_VERSION = 1

#: Keys every artifact must carry, in envelope order.
ARTIFACT_REQUIRED_KEYS = (
    "schema_version", "experiment", "title", "repro_version", "config",
    "data",
)


@dataclass
class ExperimentContext:
    """Everything an experiment needs to build its artifact.

    Attributes:
        engine: the simulation engine (config, cache, trace sharing,
            parallel grid scheduling).
        params: the spec's ``--param`` knobs (e.g. ``workers=4`` for
            ``store_sharding``), every one present once
            :func:`run_experiment` has filled in the defaults.
    """

    engine: SimulationEngine
    params: Dict[str, Any] = field(default_factory=dict)

    @property
    def config(self) -> RunConfig:
        return self.engine.config

    @property
    def jobs(self) -> int:
        return self.engine.jobs

    def param(self, name: str) -> Any:
        """The value of one knob the experiment's spec declares."""
        return self.params[name]

    def cached(self, workload: str, cell: str, params: Mapping,
               compute: Callable[[], Dict]) -> Dict:
        """One cell's JSON payload, reused from ``--cache-dir`` when
        present, else ``compute()``-d and stored.

        The cell is content-addressed by the run config plus a digest
        of ``params`` (every knob the payload depends on) in the key's
        ``machine`` slot, so changing any knob misses the cache.
        """
        digest = hashlib.sha256(
            json.dumps(dict(params), sort_keys=True).encode()
        ).hexdigest()[:12]
        key = SimulationKey(
            workload=workload,
            scheme=cell,
            scale=self.config.scale,
            seed=self.config.seed,
            skew_replacement=self.config.skew_replacement,
            machine=digest,
        )
        cache = self.engine.cache
        payload = cache.get_payload(key) if cache is not None else None
        if payload is None:
            payload = compute()
            if cache is not None:
                cache.put_payload(key, payload)
        return payload


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment.

    Attributes:
        name: registry key (= CLI name).
        title: human-readable one-liner (shown by ``list``).
        build: builds the JSON-serializable ``data`` payload.
        render: renders a *full artifact* into the terminal report.
        uses_simulation: False for pure-analysis experiments
            (fragmentation, qualitative, machine, stride sweeps).
        params: the ``--param`` knobs the experiment takes, each with
            its default.  A given value must have its default's type
            (a knob whose default is None, i.e. off, takes an int).
    """

    name: str
    title: str
    build: Callable[[ExperimentContext], Mapping]
    render: Callable[[Mapping], str]
    uses_simulation: bool = True
    params: Mapping[str, Any] = field(default_factory=dict)

    def resolve_params(self, given: Mapping[str, Any]) -> Dict[str, Any]:
        """Every declared knob, ``given`` over the defaults; ValueError
        (one line naming the declared knobs) on an undeclared key or a
        value of another type."""
        declared = ", ".join(self.params) or "none"
        for name, value in given.items():
            if name not in self.params:
                raise ValueError(f"{self.name} takes no --param {name!r} "
                                 f"(declared: {declared})")
            default = self.params[name]
            expected = int if default is None else type(default)
            if type(value) is not expected and value is not default:
                raise ValueError(
                    f"{self.name} --param {name} must be "
                    f"{expected.__name__}, got {value!r} "
                    f"(declared: {declared})")
        return {**self.params, **given}


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add one experiment to the registry (idempotent per name)."""
    _REGISTRY[spec.name] = spec
    return spec


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered experiment, loading the standard set."""
    _load_standard_experiments()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(all_experiment_names())
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from None


def all_experiment_names() -> List[str]:
    """Registered experiment names, sorted."""
    _load_standard_experiments()
    return sorted(_REGISTRY)


def _load_standard_experiments() -> None:
    """Import the experiment modules so their specs self-register."""
    from repro.experiments import load_all_experiments

    load_all_experiments()


def run_experiment(name: str, context: ExperimentContext) -> Dict[str, Any]:
    """Build the named experiment's artifact (envelope + data), its
    params checked (ValueError before ``build``) and completed by
    :meth:`ExperimentSpec.resolve_params`."""
    spec = get_experiment(name)
    context = replace(context, params=spec.resolve_params(context.params))
    data = spec.build(context)
    return {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "experiment": spec.name,
        "title": spec.title,
        "repro_version": repro.__version__,
        "config": {
            "scale": context.config.scale,
            "seed": context.config.seed,
            "skew_replacement": context.config.skew_replacement,
            "params": dict(context.params),
        },
        "data": data,
    }


def render_artifact(artifact: Mapping) -> str:
    """Render any conforming artifact via its experiment's renderer."""
    validate_artifact(artifact)
    return get_experiment(artifact["experiment"]).render(artifact)


def validate_artifact(artifact: Mapping) -> None:
    """Raise ValueError unless ``artifact`` matches the shared schema."""
    missing = [k for k in ARTIFACT_REQUIRED_KEYS if k not in artifact]
    if missing:
        raise ValueError(f"artifact is missing keys: {', '.join(missing)}")
    if artifact["schema_version"] != ARTIFACT_SCHEMA_VERSION:
        raise ValueError(
            f"artifact schema v{artifact['schema_version']} != "
            f"supported v{ARTIFACT_SCHEMA_VERSION}"
        )
    config = artifact["config"]
    for field_name in ("scale", "seed", "skew_replacement", "params"):
        if field_name not in config:
            raise ValueError(f"artifact config is missing {field_name!r}")
