"""Admission control: token-bucket rate limiting + queue-depth caps.

A serving frontend must never queue unboundedly: past the point where
the backend (here, the sharded store's per-shard batchers) can keep up,
every additional admitted request only adds latency for everyone.  The
:class:`AdmissionController` therefore makes the *admit/reject* decision
before a request touches any queue, on two independent criteria:

* a **token bucket** (``rate`` tokens/second, ``burst`` capacity) that
  bounds the sustained admitted rate while letting short bursts through
  untaxed — the knob that turns an open-loop overload into explicit
  :class:`~repro.serve.frontend.Response` rejects instead of collapse;
* a **queue-depth cap** (``max_queue_depth``) on the frontend's total
  in-flight count, the backstop that holds even when the rate limit is
  generous but one shard stalls (see :mod:`repro.serve.faults`) and its
  queue starts eating the budget.

Rejections carry a machine-readable reason (:data:`REASON_RATE` /
:data:`REASON_QUEUE`) so callers, metrics and the load generator can
distinguish "offered too fast" from "backend backed up".

The caller passes the time with each decision (the frontend's own
``perf_counter`` read at submit), so the token bucket is exactly
testable without sleeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "REASON_QUEUE",
    "REASON_RATE",
]

#: Reject reason: the token bucket is empty (sustained offered rate
#: above the configured admitted rate).
REASON_RATE = "rate_limited"

#: Reject reason: the frontend's in-flight count hit ``max_queue_depth``.
REASON_QUEUE = "queue_full"


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs for one :class:`AdmissionController`.

    Attributes:
        rate: sustained admitted requests/second; ``None`` disables the
            token bucket (queue-depth is then the only guard).
        burst: token-bucket capacity — how many requests may be
            admitted back-to-back after an idle period.
        max_queue_depth: hard cap on the frontend's in-flight requests
            (queued + executing); admission beyond it is rejected.
    """

    rate: Optional[float] = None
    burst: int = 64
    max_queue_depth: int = 1024

    def __post_init__(self):
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive (or None)")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")


class AdmissionController:
    """Stateful admit/reject gate combining both criteria.

    Not thread-safe by design: the frontend drives it from a single
    asyncio event loop, so admissions are already serialized.
    """

    def __init__(self, config: AdmissionConfig = None):
        self.config = config or AdmissionConfig()
        self._tokens = float(self.config.burst)
        #: Time of the last refill.  The bucket starts full, so the
        #: first refill (from 0.0) only caps it at ``burst`` again.
        self._last_refill = 0.0
        self.admitted = 0
        self.rejected: Dict[str, int] = {REASON_RATE: 0, REASON_QUEUE: 0}

    def _refill(self, now_s: float) -> None:
        elapsed = now_s - self._last_refill
        self._last_refill = now_s
        if elapsed > 0:
            self._tokens = min(float(self.config.burst),
                               self._tokens + elapsed * self.config.rate)

    def admit(self, queue_depth: int, now_s: float) -> Optional[str]:
        """Decide one request at time ``now_s`` (seconds on any
        monotonic clock): ``None`` = admitted, else the reason.

        ``queue_depth`` is the caller's current in-flight count; the
        depth check runs first so a backed-up frontend rejects even
        when tokens are available (tokens are only consumed on
        admission, so a queue-full reject does not burn rate budget).
        """
        if queue_depth >= self.config.max_queue_depth:
            self.rejected[REASON_QUEUE] += 1
            return REASON_QUEUE
        if self.config.rate is not None:
            self._refill(now_s)
            if self._tokens < 1.0:
                self.rejected[REASON_RATE] += 1
                return REASON_RATE
            self._tokens -= 1.0
        self.admitted += 1
        return None

    def stats(self) -> Dict[str, int]:
        """Admission counters (JSON-friendly)."""
        return {
            "admitted": self.admitted,
            "rejected_rate_limited": self.rejected[REASON_RATE],
            "rejected_queue_full": self.rejected[REASON_QUEUE],
        }

    def __repr__(self) -> str:
        return (f"AdmissionController(rate={self.config.rate}, "
                f"burst={self.config.burst}, "
                f"max_queue_depth={self.config.max_queue_depth}, "
                f"admitted={self.admitted})")
