"""Closed-loop and open-loop load generation for a :class:`Frontend`.

Two driving disciplines, because they measure different things:

* **closed loop** — N concurrent clients, each waiting for its response
  before issuing the next request.  Throughput self-adjusts to the
  backend; this measures sustainable service rate, never overload.
* **open loop** — requests arrive on their own schedule whether or not
  earlier ones finished: Poisson (memoryless, the classic M/G/k
  arrival) or **bursty zipfian** (burst sizes drawn Zipf-distributed,
  exponential gaps between bursts at the same mean offered rate).
  Open-loop is the discipline that exposes tail latency and admission
  behavior — the birthday-paradox effect of skewed key popularity
  colliding on shards only shows up when arrivals do not politely wait.

Request *content* comes from :mod:`repro.store.traffic` (zipfian /
strided / pow2 key streams), so the same generators that drive the
offline replay driver drive the serving frontend; arrival *timing* is
this module's job.  Everything is deterministic under a seed.

:class:`LoadReport` is the measured outcome: per-status counts,
latency percentiles over the full response population (p50/p95/p99),
reject/timeout rates, achieved vs offered rate, and the frontend's
batching summary.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.serve.frontend import Frontend, Response
from repro.store.traffic import Request

__all__ = [
    "ARRIVALS",
    "LoadReport",
    "arrival_gaps",
    "closed_loop",
    "open_loop",
    "run_closed_loop",
    "run_open_loop",
]

#: Supported open-loop arrival processes.
ARRIVALS = ("poisson", "bursty")


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one load-generation run against a frontend."""

    n_requests: int
    elapsed_s: float
    throughput_rps: float  #: completed responses / wall time
    offered_rps: Optional[float]  #: None for closed-loop runs
    statuses: Dict[str, int]
    latency: Dict[str, float]  #: mean/p50/p95/p99/max over all responses
    service_time: Dict[str, float]  #: same summary over the seed-
    #: deterministic virtual-clock ``Response.service_time_s``
    retries: int
    batches: int
    mean_batch_size: float
    peak_queue_depth: int
    concurrency: Optional[int] = None  #: closed-loop client count
    arrival: Optional[str] = None  #: open-loop arrival process

    @property
    def ok(self) -> int:
        return self.statuses.get("ok", 0)

    @property
    def reject_rate(self) -> float:
        return (self.statuses.get("rejected", 0) / self.n_requests
                if self.n_requests else 0.0)

    @property
    def timeout_rate(self) -> float:
        return (self.statuses.get("timeout", 0) / self.n_requests
                if self.n_requests else 0.0)

    @property
    def error_rate(self) -> float:
        return (self.statuses.get("error", 0) / self.n_requests
                if self.n_requests else 0.0)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "n_requests": self.n_requests,
            "elapsed_s": self.elapsed_s,
            "throughput_rps": self.throughput_rps,
            "offered_rps": self.offered_rps,
            "statuses": dict(self.statuses),
            "latency": dict(self.latency),
            "service_time": dict(self.service_time),
            "retries": self.retries,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "peak_queue_depth": self.peak_queue_depth,
            "concurrency": self.concurrency,
            "arrival": self.arrival,
            "reject_rate": self.reject_rate,
            "timeout_rate": self.timeout_rate,
            "error_rate": self.error_rate,
        }


def _latency_summary(latencies: Sequence[float]) -> Dict[str, float]:
    if not len(latencies):
        return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    arr = np.asarray(latencies, dtype=np.float64)
    p50, p95, p99 = np.percentile(arr, (50, 95, 99))
    return {"mean": float(arr.mean()), "p50": float(p50), "p95": float(p95),
            "p99": float(p99), "max": float(arr.max())}


def _report(frontend: Frontend, responses: List[Response], elapsed: float,
            offered_rps: Optional[float] = None,
            concurrency: Optional[int] = None,
            arrival: Optional[str] = None) -> LoadReport:
    statuses: Dict[str, int] = {}
    for response in responses:
        statuses[response.status] = statuses.get(response.status, 0) + 1
    stats = frontend.stats()
    return LoadReport(
        n_requests=len(responses),
        elapsed_s=elapsed,
        throughput_rps=len(responses) / elapsed if elapsed > 0 else 0.0,
        offered_rps=offered_rps,
        statuses=statuses,
        latency=_latency_summary([r.latency_s for r in responses]),
        service_time=_latency_summary(
            [r.service_time_s for r in responses]),
        retries=stats["retries"],
        batches=stats["batches"],
        mean_batch_size=stats["mean_batch_size"],
        peak_queue_depth=stats["peak_queue_depth"],
        concurrency=concurrency,
        arrival=arrival,
    )


# -- arrival processes -------------------------------------------------


def arrival_gaps(n: int, rate_rps: float, arrival: str = "poisson",
                 seed: int = 0, zipf_a: float = 1.5,
                 max_burst: int = 64) -> np.ndarray:
    """Inter-arrival gaps (seconds) for ``n`` requests at ``rate_rps``.

    ``poisson``: iid exponential gaps (memoryless arrivals).
    ``bursty``: requests arrive in bursts whose sizes are Zipf(zipf_a)
    draws clipped to ``max_burst``; within a burst the gap is zero,
    between bursts the gap is exponential with mean sized so the
    long-run offered rate stays ``rate_rps``.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    rng = np.random.default_rng(seed)
    if arrival == "poisson":
        return rng.exponential(1.0 / rate_rps, size=n)
    if arrival == "bursty":
        if zipf_a <= 1.0:
            raise ValueError("zipf_a must be > 1")
        gaps = np.zeros(n, dtype=np.float64)
        i = 0
        while i < n:
            burst = int(min(rng.zipf(zipf_a), max_burst))
            burst = min(burst, n - i)
            # one exponential gap ahead of the burst, zeros inside it;
            # mean gap = burst/rate keeps the offered rate at rate_rps
            gaps[i] = rng.exponential(burst / rate_rps)
            i += burst
        return gaps
    raise ValueError(f"unknown arrival process {arrival!r}; "
                     f"known: {', '.join(ARRIVALS)}")


# -- driving loops -----------------------------------------------------


async def closed_loop(frontend: Frontend, requests: Sequence[Request],
                      concurrency: int = 16) -> LoadReport:
    """N clients, each one request at a time, until the stream drains."""
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    queue: List[Request] = list(requests)
    queue.reverse()  # pop() preserves stream order
    responses: List[Response] = []

    async def client() -> None:
        while queue:
            request = queue.pop()
            responses.append(await frontend.submit(request))

    start = perf_counter()
    await asyncio.gather(*(client() for _ in range(min(concurrency,
                                                       len(queue)) or 1)))
    elapsed = perf_counter() - start
    return _report(frontend, responses, elapsed, concurrency=concurrency)


async def open_loop(frontend: Frontend, requests: Sequence[Request],
                    rate_rps: float, arrival: str = "poisson",
                    seed: int = 0, zipf_a: float = 1.5,
                    max_burst: int = 64) -> LoadReport:
    """Issue on an arrival schedule regardless of completions.

    Every request is issued as its own task at its scheduled arrival
    time (or as soon after as the loop can manage); the report covers
    the full population, so rejects and timeouts are counted, not
    hidden.
    """
    requests = list(requests)
    gaps = arrival_gaps(len(requests), rate_rps, arrival=arrival, seed=seed,
                        zipf_a=zipf_a, max_burst=max_burst)
    loop = asyncio.get_running_loop()
    tasks: List[asyncio.Task] = []
    start = perf_counter()
    loop_start = loop.time()
    scheduled = 0.0
    for request, gap in zip(requests, gaps):
        scheduled += gap
        delay = loop_start + scheduled - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(frontend.submit(request)))
    responses = list(await asyncio.gather(*tasks))
    elapsed = perf_counter() - start
    return _report(frontend, responses, elapsed, offered_rps=rate_rps,
                   arrival=arrival)


def run_closed_loop(frontend_factory, requests: Sequence[Request],
                    concurrency: int = 16) -> LoadReport:
    """Sync wrapper: build the frontend, drive it closed-loop, stop it.

    ``frontend_factory`` is a zero-arg callable returning an unstarted
    :class:`Frontend` (frontends hold asyncio primitives, so they must
    be created inside the loop that drives them).
    """

    async def run() -> LoadReport:
        async with frontend_factory() as frontend:
            return await closed_loop(frontend, requests,
                                     concurrency=concurrency)

    return asyncio.run(run())


def run_open_loop(frontend_factory, requests: Sequence[Request],
                  rate_rps: float, arrival: str = "poisson",
                  seed: int = 0, **kwargs) -> LoadReport:
    """Sync wrapper for :func:`open_loop` (see :func:`run_closed_loop`)."""

    async def run() -> LoadReport:
        async with frontend_factory() as frontend:
            return await open_loop(frontend, requests, rate_rps,
                                   arrival=arrival, seed=seed, **kwargs)

    return asyncio.run(run())
