"""Serving: tail latency per hashing scheme under skewed open-loop load.

Extension experiment closing the loop from the paper's *balance*
argument (Eq. 1) to the metric a serving system actually ships: tail
latency.  For every shard-selection scheme (traditional power-of-two
modulo, XOR, pMod, pDisp) the same bursty-zipfian request stream is
driven open-loop through the :class:`~repro.serve.Frontend` — per-shard
batching, token-bucket admission, bounded retries — over a
:class:`~repro.store.ShardedStore`, and the artifact records
p50/p95/p99 latency, reject/timeout rates, mean batch size and the
store's observed balance per scheme.

Expected shape: schemes that keep balance near 1.0 (pMod, pDisp) keep
shard queues even, so their p99 stays close to their p50; a collapsed
selector concentrates arrivals on a few shard queues and pays at the
tail first — the birthday-paradox effect of skewed popularity meeting
bad routing, visible only because arrivals are open-loop and bursty.

``--param stall_shard=N`` additionally stalls one shard through a
:class:`~repro.serve.FaultInjector`, demonstrating graceful degradation
(explicit timeouts/rejects, bounded queue) inside the artifact's
``checks`` block.

With ``--cache-dir`` set, each scheme's load report is
content-addressed through the engine's result cache and reused across
runs; a traced run (``--trace``) caches its cells apart, because only
they carry the per-stage attribution its checks grade.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Mapping, Optional

from repro.engine import ExperimentContext, ExperimentSpec, register
from repro.obs import get_collector
from repro.reporting import serve_latency_table, serve_tail_chart
from repro.serve import (
    AdmissionConfig,
    BatchConfig,
    FaultInjector,
    FaultPolicy,
    Frontend,
    run_open_loop,
)
from repro.store import ShardedStore, make_traffic

#: Schemes compared, in the paper's figure order.
DEFAULT_SCHEMES = ("traditional", "xor", "pmod", "pdisp")

#: Trace-sampling rate for the attribution run: one request in this
#: many carries a full stage timeline when tracing is enabled.
SPAN_EVERY = 8

#: Minimum fraction of measured request wall time the per-stage
#: decomposition must explain for a scheme's attribution to count.
MIN_STAGE_COVERAGE = 0.9

#: The offered load: requests per scheme at ``--scale 1``, traffic
#: pattern, open-loop rate and arrival process.
REQUESTS = 2500
PATTERN = "zipfian"
RATE_RPS = 12000.0
ARRIVAL = "bursty"

#: The frontend: admission token rate and burst, the in-flight cap,
#: the batch window, and the per-request timeout and retries.
ADMIT_RATE = 8000.0
BURST = 128
MAX_QUEUE_DEPTH = 512
MAX_BATCH_SIZE = 32
MAX_WAIT_S = 0.001
TIMEOUT_S = 0.05
MAX_RETRIES = 1

#: The backing store, and how long a stalled shard holds each batch.
N_SHARDS = 32
SHARD_CAPACITY = 256
STALL_S = 0.25


def measure(scheme: str, n_requests: int, seed: int = 0,
            stall_shard: Optional[int] = None) -> Dict:
    """Drive one scheme's frontend open-loop; returns the cell payload.

    The payload is the :class:`~repro.serve.LoadReport` dict plus the
    backing store's balance/concentration telemetry and the fault
    counters when a shard stall was injected.
    """
    telemetry = {}

    def build() -> Frontend:
        store = ShardedStore(n_shards=N_SHARDS, scheme=scheme,
                             shard_capacity=SHARD_CAPACITY)
        telemetry["store"] = store
        injector = None
        if stall_shard is not None:
            injector = FaultInjector(stall_s=STALL_S, seed=seed)
            injector.stall(stall_shard % store.n_shards)
        return Frontend(
            store,
            batch=BatchConfig(max_batch_size=MAX_BATCH_SIZE,
                              max_wait_s=MAX_WAIT_S),
            admission=AdmissionConfig(rate=ADMIT_RATE, burst=BURST,
                                      max_queue_depth=MAX_QUEUE_DEPTH),
            policy=FaultPolicy(timeout_s=TIMEOUT_S,
                               max_retries=MAX_RETRIES),
            injector=injector,
            span_every=SPAN_EVERY,
        )

    requests = make_traffic(PATTERN, n_requests, seed=seed)
    report = run_open_loop(build, requests, rate_rps=RATE_RPS,
                           arrival=ARRIVAL, seed=seed)
    store = telemetry["store"]
    store_telemetry = store.telemetry()
    payload = report.as_dict()
    payload["scheme"] = scheme
    payload["balance"] = store_telemetry.balance
    payload["concentration"] = store_telemetry.concentration
    payload["top_keys"] = store_telemetry.top_keys
    payload["stalled_shard"] = (stall_shard % store.n_shards
                                if stall_shard is not None else None)
    collector = get_collector()
    if collector.enabled:
        # Per-scheme critical-path decomposition over this run's
        # sampled traces (the collector is process-global; the scheme
        # label keeps each cell's traces separable).
        payload["attribution"] = collector.analyze(scheme=scheme)
    return payload


def degradation_checks(cells: Mapping[str, Mapping],
                       max_queue_depth: int, stalled: bool,
                       traced: bool = False) -> Dict[str, bool]:
    """The serving contract, asserted on every scheme's payload:
    every request accounted for, never a silent drop, the in-flight
    count bounded by the admission cap — under an injected stall,
    explicit timeouts instead of a hang — and, when the run traced,
    a stage decomposition that explains the measured wall time."""
    checks: Dict[str, bool] = {}
    for scheme, cell in cells.items():
        statuses = cell["statuses"]
        accounted = sum(statuses.values()) == cell["n_requests"]
        checks[f"{scheme}_all_accounted"] = bool(accounted)
        checks[f"{scheme}_no_silent_drops"] = statuses.get("dropped", 0) == 0
        checks[f"{scheme}_queue_bounded"] = bool(
            cell["peak_queue_depth"] <= max_queue_depth)
        if stalled:
            checks[f"{scheme}_stall_surfaces_explicitly"] = bool(
                statuses.get("timeout", 0) + statuses.get("rejected", 0) > 0)
        if traced:
            # The tracing contract: sampled stage timelines must
            # explain at least MIN_STAGE_COVERAGE of the measured
            # request wall time, or the decomposition is lying.
            attribution = cell.get("attribution") or {}
            checks[f"{scheme}_stage_coverage"] = bool(
                attribution.get("n_traces")
                and attribution["coverage"] >= MIN_STAGE_COVERAGE)
    return checks


def render(data: Mapping) -> str:
    """Latency table + p99 chart + the contract-check verdict."""
    rows = list(data["schemes"].values())
    stall = data.get("stall_shard")
    suffix = f", shard {stall} stalled" if stall is not None else ""
    sections = [
        serve_latency_table(
            rows,
            title=(f"Serving — {data['pattern']} keys, {data['arrival']} "
                   f"arrivals at {data['rate_rps']:,.0f} req/s offered "
                   f"({data['n_requests']} requests, {data['n_shards']} "
                   f"shards{suffix})")),
        serve_tail_chart(rows, title="p99 latency (ms) per scheme"),
    ]
    attributed = [(scheme, cell["attribution"])
                  for scheme, cell in data["schemes"].items()
                  if cell.get("attribution")
                  and cell["attribution"].get("n_traces")]
    if attributed:
        lines = ["Per-stage latency attribution (sampled traces):"]
        for scheme, ana in attributed:
            stages = ", ".join(
                f"{name} {stage['share']:.0%}"
                for name, stage in list(ana["stages"].items())[:5])
            p99 = ana["percentiles"]["p99"]
            lines.append(
                f"  {scheme}: {ana['n_traces']} traces, coverage "
                f"{ana['coverage']:.0%}; p99 trace {p99['trace_id']} "
                f"({p99['wall_s'] * 1e3:.2f} ms) — {stages}")
        sections.append("\n".join(lines))
    checks = data.get("checks", {})
    if checks:
        verdict = "ok" if all(checks.values()) else "VIOLATED"
        sections.append(
            f"Serving contract (accounting, bounded queue, explicit "
            f"shedding): {verdict} ({sum(checks.values())}/{len(checks)} "
            f"checks hold)")
    return "\n\n".join(sections)


def _build(ctx: ExperimentContext) -> Dict:
    n_requests = max(1, int(REQUESTS * ctx.config.scale))
    stall_shard = ctx.param("stall_shard")
    traced = get_collector().enabled
    key = {
        "n_requests": n_requests, "pattern": PATTERN, "rate_rps": RATE_RPS,
        "arrival": ARRIVAL, "admit_rate": ADMIT_RATE, "burst": BURST,
        "max_queue_depth": MAX_QUEUE_DEPTH,
        "max_batch_size": MAX_BATCH_SIZE, "max_wait_s": MAX_WAIT_S,
        "timeout_s": TIMEOUT_S, "max_retries": MAX_RETRIES,
        "n_shards": N_SHARDS, "shard_capacity": SHARD_CAPACITY,
        "seed": ctx.config.seed, "stall_shard": stall_shard,
        "stall_s": STALL_S,
    }
    if traced:
        key["traced"] = True
    cells = {
        scheme: ctx.cached(f"serve-{PATTERN}", scheme, key,
                           partial(measure, scheme, n_requests,
                                   ctx.config.seed, stall_shard))
        for scheme in DEFAULT_SCHEMES
    }
    return {
        "n_requests": n_requests,
        "pattern": PATTERN,
        "arrival": ARRIVAL,
        "rate_rps": RATE_RPS,
        "admit_rate": ADMIT_RATE,
        "max_queue_depth": MAX_QUEUE_DEPTH,
        "n_shards": N_SHARDS,
        "stall_shard": stall_shard,
        "schemes": cells,
        "checks": degradation_checks(cells, MAX_QUEUE_DEPTH,
                                     stalled=stall_shard is not None,
                                     traced=traced),
    }


def _render_artifact(artifact: Mapping) -> str:
    return render(artifact["data"])


register(ExperimentSpec(
    name="serving",
    title="Serving: tail latency per hashing scheme under skewed load "
          "(extension)",
    build=_build,
    render=_render_artifact,
    uses_simulation=False,
    params={"stall_shard": None},
))
