"""Concurrent traffic replay against a :class:`ShardedStore`.

The driver splits a request stream across a thread pool (the store
serializes per shard, not globally, so disjoint-shard requests proceed
in parallel) and reports what a serving system reports: wall time,
throughput, hit rate, and the *tail* per-shard load — the metric a
badly balanced scheme hurts first, because the hottest shard's lock
is the whole store's ceiling.

Each worker chunk's wall time is recorded individually
(``chunk_wall_s``), so a straggler — one chunk whose keys collapse
onto a hot shard and serialize behind its lock — is attributable
instead of averaged away; ``chunk_skew`` (slowest / mean) is the
one-number summary the store experiment table shows.  With
observability enabled the chunk times also land on the
``store.replay.chunk_s`` registry histogram.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs import get_journal, get_registry, trace_span
from repro.store.engine import ShardedStore, StoreTelemetry
from repro.store.traffic import Request


class ReplayError(RuntimeError):
    """One replay chunk failed; carries the failure's full context.

    Serial and thread-pool replay raise identically: the *first*
    failing chunk (by chunk index, i.e. stream order) wins, wrapped
    with the chunk index, the absolute request index in the original
    stream, the request's op/key and — when the key still routes — the
    shard it was headed for.  The original exception rides along as
    ``__cause__``.
    """

    def __init__(self, message: str, *, chunk_index: int, request_index: int,
                 op: str, key, shard: Optional[int] = None):
        super().__init__(message)
        self.chunk_index = chunk_index
        self.request_index = request_index
        self.op = op
        self.key = key
        self.shard = shard


def chunk_skew(chunk_wall_s: Sequence[float]) -> float:
    """Slowest chunk over mean chunk time (1.0 = perfectly even).

    NaN-free: an empty or degenerate list reports 1.0, the no-skew
    value, so tables and JSON stay clean.
    """
    times = [t for t in chunk_wall_s if t > 0]
    if not times:
        return 1.0
    return max(times) * len(times) / sum(times)


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one traffic replay."""

    n_requests: int
    workers: int
    elapsed_s: float
    throughput_rps: float
    telemetry: StoreTelemetry
    chunk_wall_s: List[float] = field(default_factory=list)

    @property
    def chunk_skew(self) -> float:
        return chunk_skew(self.chunk_wall_s)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "n_requests": self.n_requests,
            "workers": self.workers,
            "elapsed_s": self.elapsed_s,
            "throughput_rps": self.throughput_rps,
            "chunk_wall_s": list(self.chunk_wall_s),
            "chunk_skew": self.chunk_skew,
            "telemetry": self.telemetry.as_dict(),
        }


def _serve(store: ShardedStore, requests: Sequence[Request],
           chunk_index: int = 0, offset: int = 0) -> float:
    """Serve one chunk; returns its wall time in seconds.

    Any per-request failure is re-raised as :class:`ReplayError` with
    the chunk index and the request's absolute stream index, so a
    failure inside a thread-pool worker is attributable instead of
    surfacing as a bare traceback from an anonymous chunk.
    """
    start = time.perf_counter()
    get, put, delete = store.get, store.put, store.delete
    for i, request in enumerate(requests):
        try:
            if request.op == "get":
                get(request.key)
            elif request.op == "put":
                put(request.key, request.value)
            elif request.op == "delete":
                delete(request.key)
            else:
                raise ValueError(f"unknown request op {request.op!r}")
        except Exception as exc:
            try:
                shard: Optional[int] = store.shard_for(request.key)
            except Exception:
                shard = None  # the key itself may be what's broken
            where = f"shard {shard}" if shard is not None else "unroutable"
            get_journal().emit("store.replay.error", chunk=chunk_index,
                               request=offset + i, op=request.op,
                               shard=shard, error=f"{type(exc).__name__}: "
                                                  f"{exc}")
            raise ReplayError(
                f"replay chunk {chunk_index} failed at request "
                f"{offset + i} ({request.op!r} key={request.key!r}, "
                f"{where}): {exc}",
                chunk_index=chunk_index, request_index=offset + i,
                op=request.op, key=request.key, shard=shard) from exc
    return time.perf_counter() - start


def replay(store: ShardedStore, requests: Sequence[Request],
           workers: int = 1) -> ReplayReport:
    """Serve ``requests`` through ``store`` and snapshot the outcome.

    ``workers <= 1`` replays in-process (deterministic order — what the
    experiments use); larger values split the stream into ``workers``
    contiguous chunks served concurrently.  Shard routing, and hence
    balance, is identical either way; only interleaving (and therefore
    concentration and eviction order) can differ under concurrency.
    """
    requests = list(requests)
    start = time.perf_counter()
    with trace_span("replay", scheme=store.scheme, requests=len(requests),
                    workers=max(1, workers)):
        if workers <= 1 or len(requests) < 2:
            chunk_wall_s = [_serve(store, requests)]
        else:
            chunk = -(-len(requests) // workers)  # ceil division
            parts = [(index, offset, requests[offset:offset + chunk])
                     for index, offset
                     in enumerate(range(0, len(requests), chunk))]
            with ThreadPoolExecutor(max_workers=len(parts)) as pool:
                futures = [pool.submit(_serve, store, part, index, offset)
                           for index, offset, part in parts]
                # Drain every future before raising: a bare
                # `future.result()` loop would leave later chunks'
                # exceptions unobserved (and which chunk raised would
                # depend on thread scheduling).  Collect all outcomes,
                # then surface the first failure in stream order.
                outcomes = []
                for future in futures:
                    try:
                        outcomes.append((future.result(), None))
                    except Exception as exc:  # noqa: BLE001
                        outcomes.append((None, exc))
                errors = [exc for _, exc in outcomes if exc is not None]
                if errors:
                    raise errors[0]
                chunk_wall_s = [wall for wall, _ in outcomes]
    elapsed = time.perf_counter() - start
    registry = get_registry()
    if registry.enabled:
        hist = registry.histogram("store.replay.chunk_s",
                                  scheme=store.scheme)
        for wall in chunk_wall_s:
            hist.observe(wall)
    return ReplayReport(
        n_requests=len(requests),
        workers=max(1, workers),
        elapsed_s=elapsed,
        throughput_rps=len(requests) / elapsed if elapsed > 0 else 0.0,
        telemetry=store.telemetry(),
        chunk_wall_s=chunk_wall_s,
    )
