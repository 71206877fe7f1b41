"""Secret rotation for keyed schemes: new key, epoch migration.

Keyed indexing (:mod:`repro.hashing.keyed`) makes the key→shard map
secret-dependent, but a patient bucketing attacker can still learn it
one key at a time (:mod:`repro.adversary`).  The answer is not a
stronger hash — it is *rotation*: derive a fresh secret, route the
next epoch with it, and everything the attacker paid thousands of
probes to learn is worthless at once, while every stored key survives
via the same dual-epoch migration path a reshard uses.

:class:`KeyRotator` packages that move: mint a fresh 64-bit secret
(from its own deterministic stream, so drills reproduce),
:meth:`~repro.store.routing.RoutingTable.rekeyed` the routing table,
and run the :class:`~repro.store.Migrator` to completion.  It journals
``control.key_rotation`` with a *fingerprint* of the new secret — the
raw key never leaves the routing table, least of all onto a log stream an
attacker might read.

The :class:`~repro.control.RemediationController` fires a rotation
when the :meth:`~repro.obs.health.HashQualityDetector.grade_adversary`
alarm pages (see the ``key_rotation`` decision rule), but operators
can rotate on schedule too — :meth:`KeyRotator.rotate` is just a
method call.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, Optional

from repro.obs import Journal, MetricsRegistry, get_journal, get_registry
from repro.store import Migrator, ShardedStore
from repro.store.migrate import DEFAULT_MOVE_BUDGET

__all__ = ["KeyRotator", "key_fingerprint"]


def key_fingerprint(key: int) -> str:
    """Short non-invertible digest of a secret, safe to journal."""
    digest = hashlib.blake2b(
        int(key).to_bytes(16, "little", signed=False), digest_size=4)
    return digest.hexdigest()


class KeyRotator:
    """Rotates a keyed store's secret through an epoch migration.

    Args:
        store: the store to rotate.  Its scheme must be keyed (its
            routing table's indexing carries a ``key``) — checked at construction, not
            at the moment an attack is already underway.
        seed: seeds the rotator's private secret stream; two rotators
            with the same seed mint the same key sequence, which keeps
            attack/defense drills replayable.
        registry: metrics override (defaults to the global registry).
        journal: journal override (defaults to the global journal).
    """

    def __init__(self, store: ShardedStore, seed: int = 0,
                 registry: Optional[MetricsRegistry] = None,
                 journal: Optional[Journal] = None):
        if getattr(store.routing.indexing, "key", None) is None:
            raise ValueError(
                f"scheme {store.scheme!r} is not keyed; only keyed "
                f"schemes can rotate secrets")
        self.store = store
        self._registry = registry
        self._journal = journal
        self._rng = random.Random(seed)
        self.rotations = 0

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    @property
    def journal(self) -> Journal:
        return self._journal if self._journal is not None else get_journal()

    def rotate(self, reason: str = "operator request") -> Dict[str, Any]:
        """Mint a fresh secret, migrate onto it, journal the move.

        Returns a report dict: the new epoch, the new secret's
        fingerprint, and the completed migration's summary.  The store
        is serving on the new epoch when this returns; no stored key
        is lost (the migration moves every record, and the drill tests
        assert it).
        """
        new_key = self._rng.getrandbits(64) | 1  # never the zero key
        table = self.store.routing.rekeyed(new_key)
        self.store.begin_reshard(table)
        migration = Migrator(self.store, budget=DEFAULT_MOVE_BUDGET,
                             registry=self.registry).run()
        self.rotations += 1
        fingerprint = key_fingerprint(new_key)
        self.registry.counter("control.key_rotations").inc()
        self.journal.emit("control.key_rotation",
                          scheme=self.store.scheme,
                          epoch=table.epoch_id,
                          key_fingerprint=fingerprint,
                          moved=migration.moved,
                          reason=reason)
        return {
            "epoch": table.epoch_id,
            "scheme": self.store.scheme,
            "key_fingerprint": fingerprint,
            "migration": migration.as_dict(),
        }

    def __repr__(self) -> str:
        return (f"KeyRotator(rotations={self.rotations}, "
                f"store={self.store.scheme}/{self.store.n_shards}"
                f"@e{self.store.epoch})")
