"""`repro.control` — the remediation controller closing the
detect→remediate loop.

The health layer (:mod:`repro.obs.health`) can *detect* a sick store —
burn-rate pages, hash-quality drift verdicts, stalled-shard fault
events on the journal — but until this package nothing could *act* on
the detection.  :class:`RemediationController` consumes exactly those
signals and drives the epoch-versioned routing machinery
(:mod:`repro.store.routing`, :meth:`repro.store.ShardedStore.
begin_reshard`, :class:`repro.store.Migrator`) to remediate live:

* **quarantine** — a fast-window latency page plus fresh
  ``serve.fault.stall`` journal events names the stalled shards; the
  controller routes around them (never more than half the fleet)
  without dropping the store;
* **scheme swap** — a :class:`~repro.obs.health.HashQualityDetector`
  drift trip on the store's scheme triggers an online reshard onto the
  controller's target scheme (pMod by default — the paper's fix for
  conflict pile-ups, applied as an operational action);
* **grow / shrink** — capacity pages walk the shard count along the
  scheme's ladder (:func:`repro.store.ladder_up` — the *prime* ladder
  for pMod via :func:`repro.mathutil.next_prime`);
* **key rotation** — the detector's adversarial-skew page
  (``health.adversary``, fed by the store's heavy-hitter top-K) fires
  a :class:`KeyRotator`: a fresh secret for the keyed scheme, applied
  through the same dual-epoch migration, invalidating everything a
  :mod:`repro.adversary` probe campaign learned without losing a key.

Every decision lands on the journal (``control.action`` /
``control.quarantine``) and the pre-declared ``control.*`` counters, so
the loop's behavior is as observable as the symptoms it reacts to.
"""

from repro.control.controller import (
    Action,
    Observation,
    RemediationController,
)
from repro.control.rotation import KeyRotator, key_fingerprint

__all__ = [
    "Action",
    "KeyRotator",
    "Observation",
    "RemediationController",
    "key_fingerprint",
]
