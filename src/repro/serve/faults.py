"""Fault tolerance policy and chaos-testing fault injection.

Two halves, deliberately separate:

* :class:`FaultPolicy` — how the *frontend* behaves when a request goes
  wrong: a per-request timeout (no request waits forever on a stalled
  shard), bounded exponential-backoff retries (transient injected
  errors get re-queued, persistent ones surface), and a deterministic
  backoff schedule so tests can assert exact values.
* :class:`FaultInjector` — how tests and chaos runs make things go
  wrong on purpose: seeded-random **delays** (slow batches), **errors**
  (failed batches, raising :class:`InjectedFault`), and targeted
  **shard stalls** (one shard's batches sleep ``stall_s`` every time —
  the "one slow replica" scenario from sliced-LLC land, where a single
  hot or broken slice must not take the whole fabric down).

The batcher awaits :meth:`FaultInjector.before_batch` ahead of every
batch it executes; with no injector configured the serving path never
touches this module.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

import numpy as np

from repro.obs import get_journal

__all__ = ["FaultInjector", "FaultPolicy", "InjectedFault"]

#: Backoff before the first retry.
BACKOFF_BASE_S = 0.005

#: Exponential growth factor of the backoff per retry.
BACKOFF_MULTIPLIER = 2.0

#: Ceiling on any single backoff sleep.
BACKOFF_CAP_S = 0.1


class InjectedFault(RuntimeError):
    """Raised by :class:`FaultInjector` in place of a real backend error."""


@dataclass(frozen=True)
class FaultPolicy:
    """Per-request timeout and bounded-retry schedule.

    Attributes:
        timeout_s: how long one attempt may wait for its batch result
            before the frontend's deadline sweep expires it (its future
            fails with ``asyncio.TimeoutError``, and the executor skips
            the settled item when its batch comes up).
        max_retries: attempts after the first (0 = fail fast).

    Retries back off :data:`BACKOFF_BASE_S`, growing by
    :data:`BACKOFF_MULTIPLIER` per retry up to :data:`BACKOFF_CAP_S`.
    """

    timeout_s: float = 1.0
    max_retries: int = 2

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def backoff_s(self, attempt: int) -> float:
        """Deterministic capped exponential backoff before retry
        ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        return min(BACKOFF_CAP_S,
                   BACKOFF_BASE_S * BACKOFF_MULTIPLIER ** (attempt - 1))


@dataclass
class FaultInjector:
    """Seeded, targetable fault source for the serving path.

    Probabilistic faults draw from one ``numpy`` generator seeded at
    construction, so a chaos run replays exactly under the same seed.
    Shard stalls are deterministic: every batch on a stalled shard
    sleeps ``stall_s`` before executing, which is how a test creates
    the "one stalled shard" scenario the frontend must degrade
    gracefully under (timeouts + rejects, never a hang).

    Attributes:
        delay_probability: chance a batch is delayed ``delay_s``.
        delay_s: injected batch delay.
        error_probability: chance a batch raises :class:`InjectedFault`.
        stall_s: sleep applied to every batch of a stalled shard.
        seed: RNG seed for the probabilistic faults.
    """

    delay_probability: float = 0.0
    delay_s: float = 0.005
    error_probability: float = 0.0
    stall_s: float = 0.25
    seed: int = 0
    stalled_shards: Set[int] = field(default_factory=set)

    def __post_init__(self):
        for name in ("delay_probability", "error_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if self.delay_s < 0 or self.stall_s < 0:
            raise ValueError("delay_s and stall_s must be >= 0")
        self._rng = np.random.default_rng(self.seed)
        self.injected: Dict[str, int] = {"delay": 0, "error": 0, "stall": 0}

    # -- targeting -----------------------------------------------------

    def stall(self, shard_id: int) -> "FaultInjector":
        """Mark ``shard_id`` stalled (every batch sleeps ``stall_s``)."""
        self.stalled_shards.add(shard_id)
        return self

    def recover(self, shard_id: Optional[int] = None) -> "FaultInjector":
        """Clear one stalled shard (or all, when ``shard_id`` is None)."""
        if shard_id is None:
            self.stalled_shards.clear()
        else:
            self.stalled_shards.discard(shard_id)
        return self

    # -- the hook the batcher awaits -----------------------------------

    async def before_batch(self, queue_id: int) -> float:
        """Apply any configured fault ahead of one batch execution.

        Stalls apply first (deterministic, targeted), then the seeded
        probabilistic delay and error draws.  Raising here fails the
        whole batch; the frontend's retry policy decides what happens
        to each request in it.  Returns the seconds of sleep it
        *requested* — the frontend's trace attribution measures the
        actual elapsed wall for the ``fault`` stage, and the return
        value lets tests assert the two agree.
        """
        requested = 0.0
        if queue_id in self.stalled_shards:
            self.injected["stall"] += 1
            get_journal().emit("serve.fault.stall", queue_id=queue_id,
                               stall_s=self.stall_s,
                               count=self.injected["stall"])
            requested += self.stall_s
            await asyncio.sleep(self.stall_s)
        if (self.delay_probability > 0.0
                and self._rng.random() < self.delay_probability):
            self.injected["delay"] += 1
            get_journal().emit("serve.fault.delay", queue_id=queue_id,
                               delay_s=self.delay_s)
            requested += self.delay_s
            await asyncio.sleep(self.delay_s)
        if (self.error_probability > 0.0
                and self._rng.random() < self.error_probability):
            self.injected["error"] += 1
            get_journal().emit("serve.fault.error", queue_id=queue_id)
            raise InjectedFault(f"injected error on queue {queue_id}")
        return requested

    def stats(self) -> Dict[str, int]:
        """Injected-fault counts (JSON-friendly)."""
        return dict(self.injected)
