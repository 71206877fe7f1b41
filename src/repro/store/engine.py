"""The store front end: epoch routing, per-shard segments, telemetry.

:class:`ShardedStore` is the piece that turns the paper's indexing
functions into a serving system: every ``get``/``put``/``delete`` routes
its key through the current :class:`~repro.store.routing.RoutingTable`
epoch, lands on one lock-guarded :class:`~repro.store.shard.Shard`, and
appends the chosen shard id to a bounded telemetry window.  From that
observed shard-access stream the store computes, live, the paper's two
quality metrics via :mod:`repro.hashing.analysis`:

* **balance** (Eq. 1) over the per-shard access histogram — how evenly
  the traffic spread across shards;
* **concentration** (Eq. 2) over the shard-access *sequence* — whether
  the stream burst-hammers individual shards.

Those are exactly the numbers the strided sweeps of Figures 5 and 6
report for L2 sets, here measured on real served traffic.

**Locking.**  An op takes only shard locks, one per shard it touches
(see :mod:`repro.store.shard`); outside a migration that is one.  The
window append takes none: appending to a ``deque`` is atomic under the
interpreter lock, and a reader copies the window with one
``deque.copy()`` before it looks at it.  The store's own epoch lock
guards only the epoch swaps; ``begin_reshard`` and ``wipe`` clear the
window under it.

**Online resharding.**  The routing table is swappable at runtime:
:meth:`ShardedStore.begin_reshard` installs a successor epoch with a
fresh shard fleet while keeping the previous epoch's shards readable.
During migration the store runs *dual-epoch*:

* reads consult the new epoch first and fall through to the old one,
  promoting any hit into the new epoch (so hot keys migrate themselves);
* writes land only on the new epoch, and erase the key from the old one
  so a later delete can never be undone by a stale old-epoch copy;
* deletes apply to both epochs.

:meth:`ShardedStore.commit_reshard` retires the old epoch once the
:class:`~repro.store.migrate.Migrator` has drained it.  Quarantining
(:meth:`ShardedStore.quarantine`) swaps in a same-shards successor
table that routes around the named shards — keys resident there become
cache misses, the store stays up.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterable, List, NamedTuple, Optional

import numpy as np

from repro.hashing.analysis import balance_from_counts, concentration_from_sets
from repro.obs import HeavyHitterTracker, MetricsRegistry, get_journal, \
    get_registry
from repro.store.routing import RoutingTable, StoreKey, canonical_key
from repro.store.shard import Shard

#: How many recent shard accesses the telemetry metrics (concentration
#: among them) are computed over: bounded, so telemetry costs
#: O(window), not O(traffic).
DEFAULT_TELEMETRY_WINDOW = 1 << 16

#: How many heavy-hitter keys the observed store tracks (space-saving
#: top-K; O(K) memory regardless of traffic).
DEFAULT_HOT_KEYS = 8

#: Sentinel distinguishing "not stored" from a stored ``None``.
_MISS = object()


class _EpochState(NamedTuple):
    """One atomic snapshot of the store's routing generation(s).

    Swapped as a unit under the epoch lock; the serving path reads the
    attribute once and works off a consistent (table, shards, old)
    view without taking the lock.
    """

    table: RoutingTable
    shards: List[Shard]
    old_table: Optional[RoutingTable]
    old_shards: Optional[List[Shard]]


@dataclass(frozen=True)
class StoreTelemetry:
    """One snapshot of a store's health and hashing quality.

    ``balance`` is NaN until the store has served at least one request;
    ``concentration`` is 0.0 on an ideal (or empty) stream, matching
    the analysis-layer conventions.
    """

    scheme: str
    n_shards: int
    accesses: int
    gets: int
    hits: int
    misses: int
    evictions: int
    occupancy: int
    capacity: int
    hit_rate: float
    balance: float
    concentration: float
    tail_load: float  #: max per-shard accesses / ideal per-shard share
    epoch: int = 0
    shard_accesses: List[int] = field(default_factory=list)
    #: Space-saving top-K routed keys (``{"key","count","error","where"}``
    #: rows, heaviest first); empty while the store is unobserved.
    top_keys: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable payload (artifact / benchmark friendly)."""
        return {
            "scheme": self.scheme,
            "n_shards": self.n_shards,
            "accesses": self.accesses,
            "gets": self.gets,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "occupancy": self.occupancy,
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
            "balance": self.balance,
            "concentration": self.concentration,
            "tail_load": self.tail_load,
            "epoch": self.epoch,
            "shard_accesses": list(self.shard_accesses),
            "top_keys": list(self.top_keys),
        }


class ShardedStore:
    """Sharded, capacity-bounded, thread-safe in-memory object store.

    Thread safety comes from one lock per shard, taken inside the
    shard's op; the telemetry window is appended to without a lock and
    copied before it is read.

    Args:
        n_shards: shard count, built by :meth:`RoutingTable.create`: a
            power of two is the physical count (``pmod`` uses the
            largest prime below it, leaving the rest idle — Table 1's
            fragmentation, transplanted to shards), and a prime-capable
            scheme (``pmod``, ``keyed``) also takes a prime count
            exactly.
        scheme: shard-selection scheme key from
            :data:`~repro.store.routing.STORE_SCHEMES`.
        shard_capacity: max entries per shard.
        assoc: ways per shard set.
        replacement: per-set eviction policy key.
    """

    def __init__(self, n_shards: int = 64, scheme: str = "pmod",
                 shard_capacity: int = 512, assoc: int = 8,
                 replacement: str = "lru",
                 registry: Optional[MetricsRegistry] = None):
        table = RoutingTable.create(scheme, n_shards)
        self._shard_capacity = shard_capacity
        self._assoc = assoc
        self._replacement = replacement
        self._epoch_lock = threading.Lock()
        self._state = _EpochState(table, self._build_shards(table.n_shards),
                                  None, None)
        self._window: deque = deque(maxlen=DEFAULT_TELEMETRY_WINDOW)
        # Registry instruments are resolved per epoch; with the
        # registry disabled they are all the shared null instrument and
        # the `_observed` flag keeps the serving path free of even the
        # per-request perf_counter calls.
        self._registry = get_registry() if registry is None else registry
        self._observed = self._registry.enabled
        # Heavy-hitter tracking rides the observed path only, so the
        # unobserved serving path stays free of the sketch update.
        self._hitters = (HeavyHitterTracker(k=DEFAULT_HOT_KEYS)
                         if self._observed else None)
        self._bind_instruments()

    def _build_shards(self, n_shards: int) -> List[Shard]:
        return [
            Shard(self._shard_capacity, assoc=self._assoc,
                  replacement=self._replacement, shard_id=i)
            for i in range(n_shards)
        ]

    def _bind_instruments(self) -> None:
        """(Re)resolve registry handles for the current epoch's scheme
        and shard count; called at construction and on every epoch
        swap so per-shard series always match the live fleet."""
        state = self._state
        scheme_name = state.table.scheme
        self._op_latency = {
            op: self._registry.histogram("store.op.latency_s",
                                         scheme=scheme_name, op=op)
            for op in ("get", "put", "delete")
        }
        self._shard_latency = [
            self._registry.histogram("store.shard.latency_s",
                                     scheme=scheme_name, shard=i)
            for i in range(state.table.n_shards)
        ]
        self._shard_occupancy = [
            self._registry.gauge("store.shard.occupancy",
                                 scheme=scheme_name, shard=i)
            for i in range(state.table.n_shards)
        ]
        self._request_counter = self._registry.counter(
            "store.requests", scheme=scheme_name)
        self._registry.gauge("store.epoch", scheme=scheme_name).set(
            state.table.epoch_id)

    # -- routing -------------------------------------------------------

    @property
    def routing(self) -> RoutingTable:
        """The current (newest) routing epoch."""
        return self._state.table

    @property
    def shards(self) -> List[Shard]:
        """The current epoch's shard fleet."""
        return self._state.shards

    @property
    def scheme(self) -> str:
        return self._state.table.scheme

    @property
    def n_shards(self) -> int:
        return self._state.table.n_shards

    @property
    def epoch(self) -> int:
        """The current routing epoch id (monotonic across reshards)."""
        return self._state.table.epoch_id

    @property
    def migrating(self) -> bool:
        """Whether an old epoch is still live behind the current one."""
        return self._state.old_shards is not None

    def shard_for(self, key: StoreKey) -> int:
        """Shard id ``key`` routes to under the current epoch (no
        access recorded)."""
        return self._state.table.shard(key)

    def _record(self, state: _EpochState, shard_id: int, op: str,
                elapsed_s: float) -> None:
        """Feed one served request into the registry series."""
        self._request_counter.inc()
        self._op_latency[op].observe(elapsed_s)
        if shard_id < len(self._shard_latency):
            self._shard_latency[shard_id].observe(elapsed_s)
            self._shard_occupancy[shard_id].set(
                state.shards[shard_id].occupancy)

    # -- operations ----------------------------------------------------
    #
    # Each op reads or writes the current epoch's shard inline; only a
    # miss or a write during a migration reaches the old epoch.

    def _promote(self, state: _EpochState, shard_id: int,
                 canonical: int) -> Any:
        """A current-epoch miss during migration: read the old epoch
        and promote a hit into the new one (so it is never read from
        the old fleet again)."""
        old_id = state.old_table.route(canonical)
        value = state.old_shards[old_id].get(canonical, _MISS)
        if value is not _MISS:
            state.shards[shard_id].put(canonical, value)
            state.old_shards[old_id].delete(canonical)
        return value

    def get(self, key: StoreKey, default: Any = None) -> Any:
        state = self._state
        canonical = canonical_key(key)
        shard_id = state.table.route(canonical)
        self._window.append(shard_id)
        observed = self._observed
        if observed:
            self._hitters.offer(key, shard_id)
            start = perf_counter()
        value = state.shards[shard_id].get(canonical, _MISS)
        if value is _MISS and state.old_shards is not None:
            value = self._promote(state, shard_id, canonical)
        if observed:
            self._record(state, shard_id, "get", perf_counter() - start)
        return default if value is _MISS else value

    def put(self, key: StoreKey, value: Any) -> Optional[int]:
        """Store ``value``; returns the evicted (canonical) key, if any.

        During a migration the new epoch owns the key from here on and
        the old copy is erased, so it cannot resurrect after a delete.
        """
        state = self._state
        canonical = canonical_key(key)
        shard_id = state.table.route(canonical)
        self._window.append(shard_id)
        observed = self._observed
        if observed:
            self._hitters.offer(key, shard_id)
            start = perf_counter()
        evicted = state.shards[shard_id].put(canonical, value)
        if state.old_shards is not None:
            state.old_shards[state.old_table.route(canonical)].delete(
                canonical)
        if observed:
            self._record(state, shard_id, "put", perf_counter() - start)
        return evicted

    def delete(self, key: StoreKey) -> bool:
        """Forget ``key``; during a migration both epochs forget it."""
        state = self._state
        canonical = canonical_key(key)
        shard_id = state.table.route(canonical)
        self._window.append(shard_id)
        observed = self._observed
        if observed:
            self._hitters.offer(key, shard_id)
            start = perf_counter()
        deleted = state.shards[shard_id].delete(canonical)
        if state.old_shards is not None:
            old_deleted = state.old_shards[
                state.old_table.route(canonical)].delete(canonical)
            deleted = deleted or old_deleted
        if observed:
            self._record(state, shard_id, "delete", perf_counter() - start)
        return deleted

    def contains(self, key: StoreKey) -> bool:
        state = self._state
        canonical = canonical_key(key)
        if state.shards[state.table.route(canonical)].contains(canonical):
            return True
        if state.old_shards is not None:
            return state.old_shards[
                state.old_table.route(canonical)].contains(canonical)
        return False

    def __len__(self) -> int:
        state = self._state
        total = sum(shard.occupancy for shard in state.shards)
        if state.old_shards is not None:
            total += sum(shard.occupancy for shard in state.old_shards)
        return total

    @property
    def capacity(self) -> int:
        state = self._state
        total = sum(shard.capacity for shard in state.shards)
        if state.old_shards is not None:
            total += sum(shard.capacity for shard in state.old_shards)
        return total

    # -- epoch management ----------------------------------------------

    def begin_reshard(self, table: RoutingTable) -> RoutingTable:
        """Install ``table`` as the new routing epoch with a fresh shard
        fleet; the previous epoch stays readable until
        :meth:`commit_reshard`.

        Raises RuntimeError while a migration is already in flight and
        ValueError unless ``table`` advances the epoch id.
        """
        with self._epoch_lock:
            state = self._state
            if state.old_shards is not None:
                raise RuntimeError(
                    "reshard already in flight; commit it before starting "
                    "another")
            if table.epoch_id <= state.table.epoch_id:
                raise ValueError(
                    f"new epoch {table.epoch_id} must advance past "
                    f"current epoch {state.table.epoch_id}")
            self._state = _EpochState(table, self._build_shards(
                table.n_shards), state.table, state.shards)
            self._window.clear()
            self._bind_instruments()
        get_journal().emit(
            "reshard.start",
            epoch=table.epoch_id,
            scheme=table.scheme,
            n_shards=table.n_shards,
            from_epoch=state.table.epoch_id,
            from_scheme=state.table.scheme,
            from_n_shards=state.table.n_shards,
        )
        return table

    def commit_reshard(self) -> int:
        """Retire the old epoch; returns how many keys it still held
        (left-behind keys become cache misses — the migrator drains the
        backlog to zero before committing)."""
        with self._epoch_lock:
            state = self._state
            if state.old_shards is None:
                raise RuntimeError("no reshard in flight")
            left_behind = sum(s.occupancy for s in state.old_shards)
            self._state = _EpochState(state.table, state.shards, None, None)
        get_journal().emit(
            "reshard.commit",
            epoch=state.table.epoch_id,
            scheme=state.table.scheme,
            n_shards=state.table.n_shards,
            left_behind=left_behind,
        )
        return left_behind

    def migration_backlog(self) -> int:
        """Keys still resident in the old epoch (0 when not migrating)."""
        state = self._state
        if state.old_shards is None:
            return 0
        return sum(shard.occupancy for shard in state.old_shards)

    def migrate_keys(self, max_keys: int) -> int:
        """Move up to ``max_keys`` entries from the old epoch into the
        current one; returns how many were moved (i.e. removed from the
        old fleet).  A key the new epoch already holds is *not*
        overwritten — a write that raced ahead of the migrator wins —
        but its old copy is still dropped.
        """
        if max_keys < 1:
            raise ValueError(f"max_keys must be positive, got {max_keys}")
        state = self._state
        if state.old_shards is None:
            return 0
        moved = 0
        for old_shard in state.old_shards:
            if moved >= max_keys:
                break
            for canonical, value in old_shard.items():
                if moved >= max_keys:
                    break
                new_shard = state.shards[state.table.route(canonical)]
                if not new_shard.contains(canonical):
                    new_shard.put(canonical, value)
                old_shard.delete(canonical)
                moved += 1
        return moved

    def wipe(self) -> None:
        """Drop every entry and all per-shard stats: crash-loss
        simulation (the process restarted; the routing configuration
        survived, the contents did not).  Any in-flight reshard's old
        epoch is discarded with the data."""
        with self._epoch_lock:
            state = self._state
            self._state = _EpochState(
                state.table, self._build_shards(state.table.n_shards),
                None, None)
            self._window.clear()
            self._bind_instruments()

    def quarantine(self, shard_ids: Iterable[int]) -> RoutingTable:
        """Route around ``shard_ids``: swap in a same-fleet successor
        epoch whose table probes past the quarantined shards.  Keys
        resident on them become cache misses until healed — the store
        keeps serving throughout."""
        with self._epoch_lock:
            state = self._state
            table = state.table.with_quarantined(shard_ids)
            if table is state.table:
                return table
            self._state = _EpochState(table, state.shards,
                                      state.old_table, state.old_shards)
            self._bind_instruments()
        return table

    def heal(self, shard_ids: Optional[Iterable[int]] = None) -> RoutingTable:
        """Lift the quarantine on ``shard_ids`` (all of them by
        default); same-fleet successor epoch, like :meth:`quarantine`."""
        with self._epoch_lock:
            state = self._state
            table = state.table.without_quarantined(shard_ids)
            if table is state.table:
                return table
            self._state = _EpochState(table, state.shards,
                                      state.old_table, state.old_shards)
            self._bind_instruments()
        return table

    # -- telemetry -----------------------------------------------------

    def shard_access_counts(self) -> np.ndarray:
        """Lifetime accesses per shard (the observed histogram; current
        epoch only — each epoch's quality is judged on its own traffic)."""
        return np.array([shard.stats.accesses for shard in self.shards],
                        dtype=np.int64)

    def balance(self) -> float:
        """Balance (Eq. 1) of the lifetime shard-access histogram."""
        counts = self.shard_access_counts()
        if counts.sum() == 0:
            return math.nan
        return balance_from_counts(counts)

    def concentration(self) -> float:
        """Concentration (Eq. 2) over the recent shard-access window."""
        window = self._window.copy()
        return concentration_from_sets(
            np.fromiter(window, dtype=np.int64, count=len(window)),
            self.n_shards)

    def heavy_hitters(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """Space-saving top-K routed keys with their last shard
        (heaviest first); empty while the store is unobserved.  This is
        the per-key view the aggregate Eq. 1 / Eq. 2 gauges smear away
        — a concentration alarm can name the keys causing the pileup."""
        if self._hitters is None:
            return []
        return self._hitters.top(n)

    def telemetry(self) -> StoreTelemetry:
        """Snapshot every counter plus the two paper metrics."""
        state = self._state
        counts = self.shard_access_counts()
        accesses = int(counts.sum())
        gets = sum(s.stats.gets for s in state.shards)
        hits = sum(s.stats.hits for s in state.shards)
        misses = sum(s.stats.misses for s in state.shards)
        evictions = sum(s.stats.evictions for s in state.shards)
        occupancy = len(self)
        n_shards = state.table.n_shards
        ideal_share = accesses / n_shards if accesses else 0.0
        telemetry = StoreTelemetry(
            scheme=state.table.scheme,
            n_shards=n_shards,
            accesses=accesses,
            gets=gets,
            hits=hits,
            misses=misses,
            evictions=evictions,
            occupancy=occupancy,
            capacity=self.capacity,
            hit_rate=hits / accesses if accesses else 0.0,
            balance=self.balance(),
            concentration=self.concentration(),
            tail_load=float(counts.max() / ideal_share) if ideal_share else 0.0,
            epoch=state.table.epoch_id,
            shard_accesses=counts.tolist(),
            top_keys=self.heavy_hitters(),
        )
        if self._observed:
            self._publish_telemetry(telemetry)
        return telemetry

    def _publish_telemetry(self, telemetry: StoreTelemetry) -> None:
        """Mirror one snapshot onto the registry as labeled gauges —
        the continuous-observation form of the inline Eq. 1 / Eq. 2
        numbers (each snapshot updates the series in place)."""
        labels = {"scheme": telemetry.scheme}
        for name, value in (
            ("store.balance", telemetry.balance),
            ("store.concentration", telemetry.concentration),
            ("store.tail_load", telemetry.tail_load),
            ("store.hit_rate", telemetry.hit_rate),
            ("store.occupancy", telemetry.occupancy),
            ("store.evictions", telemetry.evictions),
        ):
            self._registry.gauge(name, **labels).set(value)

    def __repr__(self) -> str:
        migrating = ", migrating" if self.migrating else ""
        return (f"ShardedStore(scheme={self.scheme!r}, "
                f"n_shards={self.n_shards}, epoch={self.epoch}, "
                f"occupancy={len(self)}/{self.capacity}{migrating})")
