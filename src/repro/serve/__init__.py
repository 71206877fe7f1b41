"""`repro.serve` — async serving frontend over the sharded store.

:mod:`repro.store` made the paper's indexing functions route real
get/put/delete traffic across shards; this subsystem puts a *request
fabric* in front of them, the shape a hash-routed backend has in
production (cf. Sandy Bridge's sliced LLC, where a hash spreads the
request stream over slices behind a real interconnect):

* :class:`Frontend` — asyncio entry point accepting get / put /
  delete requests, returning an explicit :class:`Response` for every
  one (ok, rejected, timeout, error — never a silent drop).
* :class:`Batcher` / :class:`BatchConfig` — per-shard request
  coalescing with max-batch-size and max-wait deadlines.
* :class:`AdmissionController` / :class:`AdmissionConfig` —
  token-bucket rate limiting plus a queue-depth cap, so overload
  produces explicit rejects instead of unbounded queues.
* :class:`FaultPolicy` — per-request timeouts and bounded
  exponential-backoff retries; :class:`FaultInjector` — seeded
  delay / error / shard-stall injection for chaos testing.
* :mod:`~repro.serve.loadgen` — closed-loop and open-loop (Poisson,
  bursty-zipfian) load generators over the
  :mod:`repro.store.traffic` key streams, reporting p50/p95/p99
  latency, reject/timeout rates and batching behavior.
* :mod:`~repro.serve.smoke` — the ``make serve-check`` gate.

The ``serving`` experiment (``python -m repro.experiments serving``)
compares tail latency across every hashing scheme under skewed load;
``benchmarks/bench_serve.py`` writes ``BENCH_serve.json``.
"""

from repro.serve.admission import (
    REASON_QUEUE,
    REASON_RATE,
    AdmissionConfig,
    AdmissionController,
)
from repro.serve.batcher import BatchConfig, Batcher, WorkItem
from repro.serve.faults import FaultInjector, FaultPolicy, InjectedFault
from repro.serve.frontend import (
    Frontend,
    FrontendStopped,
    Response,
    VIRTUAL_TICK_S,
)
from repro.serve.loadgen import (
    ARRIVALS,
    LoadReport,
    arrival_gaps,
    closed_loop,
    open_loop,
    run_closed_loop,
    run_open_loop,
)

__all__ = [
    "ARRIVALS",
    "AdmissionConfig",
    "AdmissionController",
    "BatchConfig",
    "Batcher",
    "FaultInjector",
    "FaultPolicy",
    "Frontend",
    "FrontendStopped",
    "InjectedFault",
    "LoadReport",
    "REASON_QUEUE",
    "REASON_RATE",
    "Response",
    "VIRTUAL_TICK_S",
    "WorkItem",
    "arrival_gaps",
    "closed_loop",
    "open_loop",
    "run_closed_loop",
    "run_open_loop",
]
