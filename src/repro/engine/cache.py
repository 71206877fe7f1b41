"""Persistent on-disk cache of simulation results.

Layout (all under a configurable cache directory, default
``.repro-cache/``)::

    .repro-cache/
      v1/                                   # RESULT_SCHEMA_VERSION
        tree--pmod--<hash16>.json           # one ExecutionResult

Each JSON entry stores the full :class:`~repro.engine.key.SimulationKey`
next to the result; on load the stored key is compared field-by-field
against the requested one, so a truncated-hash collision or a
hand-edited file degrades to a cache miss instead of a wrong result.
Schema bumps move to a fresh ``v<N>/`` subdirectory, invalidating every
older entry at once; config changes (scale, seed, machine parameters,
…) change the fingerprint and therefore the filename.

Writes go through a temp file + :meth:`~pathlib.Path.replace` so
concurrent processes never observe a half-written entry.  Reads are
hardened the same way: a truncated or hand-corrupted entry — invalid
JSON or a payload of the wrong shape — counts as a cache miss and the
broken file is discarded, so corruption can cost a re-run but never an
exception out of :class:`~repro.engine.runner.SimulationEngine`.

Besides :class:`~repro.cpu.simulator.ExecutionResult` entries, the
cache stores free-form JSON payloads (``get_payload``/``put_payload``)
under the same content addressing; every experiment cell cached outside
an ExecutionResult (Figure 13's per-set counts, the store_sharding
measurements, the drills' cells) goes through that surface, by way of
:meth:`~repro.engine.registry.ExperimentContext.cached`.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Union

from repro.cpu.simulator import ExecutionResult
from repro.engine.key import RESULT_SCHEMA_VERSION, SimulationKey
from repro.obs import get_journal, get_registry

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"


class ResultCache:
    """Content-addressed JSON store for simulation outputs."""

    def __init__(self, cache_dir: Union[str, os.PathLike] = DEFAULT_CACHE_DIR):
        self.root = Path(cache_dir) / f"v{RESULT_SCHEMA_VERSION}"
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0

    def _path(self, key: SimulationKey, suffix: str) -> Path:
        return self.root / f"{key.stem}{suffix}"

    def _hit(self) -> None:
        self.hits += 1
        get_registry().counter("engine.cache.hits").inc()

    def _miss(self) -> None:
        self.misses += 1
        get_registry().counter("engine.cache.misses").inc()

    def _publish(self, path: Path, write) -> None:
        """Atomically create ``path`` via a sibling temp file."""
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        try:
            write(tmp)
            tmp.replace(path)
        finally:
            tmp.unlink(missing_ok=True)
        self.writes += 1
        get_registry().counter("engine.cache.writes").inc()

    def _discard(self, path: Path) -> None:
        """Drop a corrupt entry so the next run rewrites it cleanly.

        Corruption degrades to a re-run, never an exception — but a
        degrading cache must not degrade *silently*: every discarded
        entry counts on ``corrupt`` (mirrored to the metrics registry)
        and emits one warning.
        """
        self.corrupt += 1
        get_registry().counter("engine.cache.corrupt").inc()
        get_journal().emit("engine.cache.corrupt_discard", entry=path.name,
                           total_corrupt=self.corrupt)
        warnings.warn(
            f"repro result cache: discarding corrupt entry {path.name} "
            f"(total corrupt entries this cache: {self.corrupt})",
            RuntimeWarning,
            stacklevel=4,
        )
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass  # read-only cache dir: miss anyway, leave the file

    def _load_verified(self, path: Path, key: SimulationKey,
                       field: str) -> Optional[dict]:
        """Entry payload at ``path`` iff readable and keyed to ``key``.

        A missing file is a plain miss; unreadable JSON or an envelope
        of the wrong shape is a miss *plus* a discard of the broken
        file.  A well-formed entry whose stored key differs (truncated-
        hash collision, stale schema) is a miss but is left in place —
        it is some other key's valid entry.
        """
        try:
            with open(path) as stream:
                payload = json.load(stream)
        except FileNotFoundError:
            self._miss()
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._miss()
            self._discard(path)
            return None
        if not isinstance(payload, dict) or field not in payload:
            self._miss()
            self._discard(path)
            return None
        if payload.get("key") != asdict(key):
            self._miss()  # fingerprint collision or stale schema
            return None
        return payload

    # -- ExecutionResult entries --------------------------------------

    def get(self, key: SimulationKey) -> Optional[ExecutionResult]:
        """The cached result for ``key``, or None."""
        path = self._path(key, ".json")
        payload = self._load_verified(path, key, "result")
        if payload is None:
            return None
        try:
            result = ExecutionResult(**payload["result"])
        except TypeError:  # truncated or hand-edited field set
            self._miss()
            self._discard(path)
            return None
        self._hit()
        return result

    def put(self, key: SimulationKey, result: ExecutionResult) -> Path:
        """Persist one result; returns the entry path."""
        path = self._path(key, ".json")
        payload = {
            "schema": RESULT_SCHEMA_VERSION,
            "key": asdict(key),
            "result": asdict(result),
        }

        def write(tmp: Path) -> None:
            with open(tmp, "w") as stream:
                json.dump(payload, stream, indent=1)

        self._publish(path, write)
        return path

    # -- free-form JSON payload entries -------------------------------

    def get_payload(self, key: SimulationKey) -> Optional[dict]:
        """The cached JSON payload for ``key``, or None."""
        payload = self._load_verified(self._path(key, ".payload.json"),
                                      key, "payload")
        if payload is None:
            return None
        self._hit()
        return payload["payload"]

    def put_payload(self, key: SimulationKey, payload: dict) -> Path:
        """Persist one JSON-serializable payload; returns the entry path."""
        path = self._path(key, ".payload.json")
        entry = {
            "schema": RESULT_SCHEMA_VERSION,
            "key": asdict(key),
            "payload": payload,
        }

        def write(tmp: Path) -> None:
            with open(tmp, "w") as stream:
                json.dump(entry, stream, indent=1)

        self._publish(path, write)
        return path

    def __repr__(self) -> str:
        return (f"ResultCache(root={str(self.root)!r}, hits={self.hits}, "
                f"misses={self.misses}, writes={self.writes}, "
                f"corrupt={self.corrupt})")
