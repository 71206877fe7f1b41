"""Append-only structured event journal: the system's flight recorder.

Metrics (:mod:`repro.obs.registry`) answer *how much*; the journal
answers *what happened, in what order*.  Engine, store, and serve emit
discrete lifecycle events into one process-wide :class:`Journal` —
cache corrupt-discards, injected shard stalls, admission rejects,
retry exhaustions, experiment start/finish — and the health layer
(:mod:`repro.obs.health`) appends the alerts it derives from them, so
one ordered stream links cause (a stall) to symptom (timeouts) to
diagnosis (a burn-rate alert).

Design points, mirroring the registry's:

* **disabled by default and free when off** — the module-level journal
  starts disabled; :meth:`Journal.emit` on a disabled journal is one
  attribute check and a return.  ``python -m repro.experiments <name>
  --journal PATH`` (or :func:`enable_journal`) switches it on.
* **monotonic sequence numbers** — every event carries ``seq``,
  assigned under one lock, so "A happened before B" is a pure integer
  comparison even across threads and file rotations.
* **two clocks** — ``ts_unix_s`` (wall clock, provenance) and
  ``mono_s`` (monotonic seconds since the journal epoch, safe for
  intervals; wall clock can step, the monotonic clock cannot).
* **versioned JSONL schema** — one JSON object per line, each stamped
  ``schema_version``; :func:`validate_event` checks a decoded line,
  :func:`replay` iterates a file (rotated segment first) back into
  dicts.
* **bounded rotation** — when the sink file would exceed
  :data:`MAX_BYTES` (4 MB) it moves to ``<path>.1``, replacing the
  previous backup, and a fresh file starts, so a chatty run costs at
  most two files of disk, never an unbounded log.

Every emit also increments the pre-declared ``journal.events`` counter
(and ``journal.rotations`` on rotation), so snapshots record journal
volume even when the JSONL file itself is discarded.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from repro.obs.registry import get_registry

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "KNOWN_EVENT_KINDS",
    "Journal",
    "JournalEvent",
    "disable_journal",
    "enable_journal",
    "get_journal",
    "replay",
    "set_journal",
    "validate_event",
]

#: Version stamped on every journal line; bump on incompatible change.
EVENT_SCHEMA_VERSION = 1

#: Keys every journal event must carry.
EVENT_REQUIRED_KEYS = ("schema_version", "seq", "ts_unix_s", "mono_s",
                       "kind", "fields")

#: Every event kind the system emits, the versioned schema's
#: vocabulary.  Producers adding a kind must add it here (and document
#: it in ``docs/observability.md``); :func:`validate_event` only
#: enforces membership when asked (``require_known_kind=True``), so
#: ad-hoc kinds in tests and downstream tooling keep working while
#: replay pipelines can opt into strict vocabulary checking.
KNOWN_EVENT_KINDS = frozenset({
    "adversary.attack_start",
    "adversary.mitigated",
    "adversary.probe_phase",
    "cluster.node_down",
    "cluster.node_up",
    "cluster.quorum_miss",
    "cluster.rereplicate",
    "control.action",
    "control.key_rotation",
    "control.quarantine",
    "engine.cache.corrupt_discard",
    "experiment.finish",
    "experiment.start",
    "health.alert_fired",
    "health.alert_resolved",
    "health.drift_recovered",
    "health.drift_tripped",
    "obs.exemplar_drop",
    "obs.flight_dump",
    "reshard.commit",
    "reshard.migrate_chunk",
    "reshard.start",
    "serve.admission_reject",
    "serve.dropped",
    "serve.fault.delay",
    "serve.fault.error",
    "serve.fault.stall",
    "serve.rebind",
    "serve.retry_exhausted",
    "serve.timeout",
    "store.replay.error",
})

#: Rotation threshold for the JSONL sink.
MAX_BYTES = 4 << 20

#: Default in-memory tail length (events kept for `tail()` / the dash).
DEFAULT_TAIL_EVENTS = 2048


@dataclass(frozen=True)
class JournalEvent:
    """One recorded event: what happened (``kind``), when (two clocks),
    in what order (``seq``), with structured context (``fields``)."""

    seq: int
    ts_unix_s: float
    mono_s: float
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": EVENT_SCHEMA_VERSION,
            "seq": self.seq,
            "ts_unix_s": self.ts_unix_s,
            "mono_s": self.mono_s,
            "kind": self.kind,
            "fields": dict(self.fields),
        }


def validate_event(event: Mapping, require_known_kind: bool = False) -> None:
    """Raise ValueError unless ``event`` is a valid journal line.

    With ``require_known_kind`` the kind must also belong to
    :data:`KNOWN_EVENT_KINDS` — the strict mode for replay pipelines
    that want vocabulary drift (a producer emitting an undocumented
    kind) to fail loudly rather than flow through.
    """
    missing = [k for k in EVENT_REQUIRED_KEYS if k not in event]
    if missing:
        raise ValueError(f"journal event missing keys: {', '.join(missing)}")
    if event["schema_version"] != EVENT_SCHEMA_VERSION:
        raise ValueError(
            f"journal event schema v{event['schema_version']} != "
            f"supported v{EVENT_SCHEMA_VERSION}"
        )
    if not isinstance(event["seq"], int) or event["seq"] < 0:
        raise ValueError(f"journal event seq must be a non-negative int, "
                         f"got {event['seq']!r}")
    if not isinstance(event["kind"], str) or not event["kind"]:
        raise ValueError("journal event kind must be a non-empty string")
    if require_known_kind and event["kind"] not in KNOWN_EVENT_KINDS:
        raise ValueError(
            f"journal event kind {event['kind']!r} is not in the "
            f"documented vocabulary (KNOWN_EVENT_KINDS)")
    if not isinstance(event["fields"], Mapping):
        raise ValueError("journal event fields must be a mapping")


class Journal:
    """Thread-safe append-only event log with an optional JSONL sink.

    Args:
        path: JSONL sink file; None keeps events in memory only (the
            bounded tail).  The file is appended to, and rotated to
            ``<path>.1`` past :data:`MAX_BYTES`.
        tail_events: how many recent events the in-memory tail keeps.
        enabled: a disabled journal's :meth:`emit` is a no-op.
    """

    def __init__(self, path: Union[str, os.PathLike, None] = None,
                 tail_events: int = DEFAULT_TAIL_EVENTS,
                 enabled: bool = True):
        self.enabled = enabled
        self.path: Optional[Path] = Path(path) if path is not None else None
        self.rotations = 0
        self._seq = 0
        self._epoch = time.monotonic()
        self._bytes = 0
        self._lock = threading.Lock()
        self._tail: deque = deque(maxlen=tail_events)
        if self.path is not None and self.path.exists():
            self._bytes = self.path.stat().st_size

    # -- lifecycle -----------------------------------------------------

    def enable(self) -> "Journal":
        self.enabled = True
        return self

    def disable(self) -> "Journal":
        self.enabled = False
        return self

    def clear(self) -> None:
        """Drop the in-memory tail and reset the epoch (the sink file,
        being the durable record, is left alone; ``seq`` keeps rising
        so ordering survives a clear)."""
        with self._lock:
            self._tail.clear()
            self._epoch = time.monotonic()

    # -- recording -----------------------------------------------------

    @property
    def events(self) -> int:
        """Events emitted over this journal's lifetime."""
        return self._seq

    def emit(self, kind: str, **fields: Any) -> Optional[JournalEvent]:
        """Append one event; returns it (None while disabled).

        ``fields`` must be JSON-serializable; anything that is not is
        stringified rather than raised on, because the journal must
        never take down the path that is trying to report a problem.
        """
        if not self.enabled:
            return None
        ts = time.time()
        with self._lock:
            event = JournalEvent(
                seq=self._seq,
                ts_unix_s=ts,
                mono_s=time.monotonic() - self._epoch,
                kind=kind,
                fields=fields,
            )
            self._seq += 1
            self._tail.append(event)
            if self.path is not None:
                self._write_line(event)
        registry = get_registry()
        registry.counter("journal.events").inc()
        return event

    def _write_line(self, event: JournalEvent) -> None:
        """Append one JSONL line (caller holds the lock)."""
        try:
            line = json.dumps(event.as_dict(), sort_keys=True,
                              default=str) + "\n"
        except (TypeError, ValueError):
            payload = event.as_dict()
            payload["fields"] = {k: str(v)
                                 for k, v in event.fields.items()}
            line = json.dumps(payload, sort_keys=True) + "\n"
        if self._bytes + len(line) > MAX_BYTES and self._bytes > 0:
            self._rotate()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as stream:
            stream.write(line)
        self._bytes += len(line)

    def _rotate(self) -> None:
        """Move the full sink to ``.1`` (dropping the previous backup)
        and start a fresh file."""
        try:
            self.path.replace(self.path.with_name(self.path.name + ".1"))
        except FileNotFoundError:
            pass
        self._bytes = 0
        self.rotations += 1
        get_registry().counter("journal.rotations").inc()

    # -- reading -------------------------------------------------------

    def tail(self, n: Optional[int] = None) -> List[JournalEvent]:
        """The most recent ``n`` events (all retained ones by default)."""
        with self._lock:
            events = list(self._tail)
        if n is not None:
            events = events[-n:]
        return events

    def find(self, kind_prefix: str,
             n: Optional[int] = None) -> List[JournalEvent]:
        """Tail events whose kind matches ``kind_prefix`` (exact name or
        dotted prefix, e.g. ``"serve.fault"``)."""
        matched = [e for e in self.tail()
                   if e.kind == kind_prefix
                   or e.kind.startswith(kind_prefix + ".")]
        if n is not None:
            matched = matched[-n:]
        return matched

    def __len__(self) -> int:
        return len(self._tail)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        sink = str(self.path) if self.path else "memory"
        return (f"Journal({state}, sink={sink}, events={self._seq}, "
                f"rotations={self.rotations})")


def replay(path: Union[str, os.PathLike],
           strict: bool = True) -> Iterator[Dict[str, Any]]:
    """Iterate a journal file's events as dicts, oldest first.

    The rotated segment ``<path>.1`` is read before the live file, so
    the stream covers the whole retained history in ``seq`` order.
    With ``strict`` (the default) a malformed line raises ValueError
    naming its file and line number; otherwise malformed lines are
    skipped — the tolerant mode for inspecting a journal that was cut
    off mid-write.
    """
    path = Path(path)
    for segment in (path.with_name(path.name + ".1"), path):
        if not segment.exists():
            continue
        with open(segment) as stream:
            for lineno, line in enumerate(stream, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                    validate_event(event)
                except (json.JSONDecodeError, ValueError) as exc:
                    if strict:
                        raise ValueError(
                            f"{segment}:{lineno}: bad journal line: {exc}"
                        ) from None
                    continue
                yield event


#: Process-wide default journal; disabled until switched on, so
#: un-journaled runs pay one attribute check per would-be event.
_global_journal = Journal(enabled=False)


def get_journal() -> Journal:
    """The process-wide journal (disabled by default)."""
    return _global_journal


def set_journal(journal: Journal) -> Journal:
    """Replace the process-wide journal; returns the previous one."""
    global _global_journal
    previous = _global_journal
    _global_journal = journal
    return previous


def enable_journal(path: Union[str, os.PathLike, None] = None) -> Journal:
    """Install and return an enabled process-wide journal.

    With ``path`` events also append to that JSONL file (rotating to
    ``<path>.1`` past :data:`MAX_BYTES`); without one the journal is
    memory-only (the bounded tail), which is what the ``health``
    experiment uses under pytest.
    """
    journal = Journal(path=path, enabled=True)
    set_journal(journal)
    return journal


def disable_journal() -> Journal:
    """Disable the process-wide journal; returns it."""
    return _global_journal.disable()
