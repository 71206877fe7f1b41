"""Health: fault drill + drift drill through the full watchdog loop.

Extension experiment exercising the :mod:`repro.obs.health` layer
end to end, the way a deployment would trust it:

* **Fault drill** — the same zipfian open-loop serving path as the
  ``serving`` experiment, run twice over a pMod-sharded store: once
  healthy (the :class:`~repro.obs.health.SloEngine` must stay quiet),
  then with the two hottest shards stalled through the existing
  :class:`~repro.serve.FaultInjector`.  The stall turns into explicit
  timeouts, the timeouts into ``serve.latency_s`` observations over
  the p99 target, and the SLO engine's fast window into a paging
  ``serve-p99-latency`` burn-rate alert.  The journal must show the
  whole causal chain in order: ``serve.fault.stall`` →
  ``serve.timeout`` → ``health.alert_fired``.
* **Self-healing** — the fault drill no longer ends at the page.  A
  :class:`~repro.control.RemediationController` consumes the very
  alerts and ``serve.fault.stall`` journal events the stalled phase
  produced, quarantines the stalled shards (an epoch bump routing
  around them — see :mod:`repro.store.routing`), and a recovery phase
  over the *same* store and the *same still-faulty* injector must
  bring the fast-window burn back under the paging threshold with no
  operator input.  The journal shows the full closed loop in order:
  ``serve.fault.stall`` → ``serve.timeout`` → ``health.alert_fired``
  → ``control.quarantine`` → ``health.alert_resolved``.
* **Drift drill** — strided (power-of-two stride) traffic replayed
  through one store per scheme, graded by a
  :class:`~repro.obs.health.HashQualityDetector` under
  :func:`~repro.obs.health.strict_bands`.  Figure 5's ordering becomes
  the asserted invariant: traditional modulo trips the balance band
  (its conflict pathology, live), while pMod and pDisp stay green.

The artifact's ``checks`` block records all three drills' verdicts;
``python -m repro.experiments health --check`` (the ``make
health-check`` target) exits nonzero unless every check holds.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Mapping, Optional, Sequence

from repro.engine import ExperimentContext, ExperimentSpec, register
from repro.obs import (
    Journal,
    disable_observability,
    enable_observability,
    get_collector,
    get_journal,
    get_registry,
    set_journal,
)
from repro.control import RemediationController
from repro.obs.health import (
    LATENCY_SLO,
    HashQualityDetector,
    SloEngine,
    default_slos,
    strict_bands,
)
from repro.serve import (
    AdmissionConfig,
    BatchConfig,
    FaultInjector,
    FaultPolicy,
    Frontend,
    run_open_loop,
)
from repro.store import ShardedStore, make_traffic, replay

#: Schemes graded in the drift drill, in the paper's figure order.
DRIFT_SCHEMES = ("traditional", "xor", "pmod", "pdisp")

#: p99 latency target of the drill's SLO: healthy requests sit well
#: under it, a timed-out request (timeout + backoff + retry timeout)
#: sits well over it, so the stall phase burns budget mechanically.
P99_TARGET_S = 0.02

#: Trace-sampling rate during the drills: dense enough (1-in-4) that
#: the flight recorder holds complete slow-trace waterfalls when the
#: page fires.
DRILL_SPAN_EVERY = 4

#: A journaled flight-dump waterfall counts as complete when its
#: stages explain at least this fraction of the trace's wall time.
MIN_WATERFALL_COVERAGE = 0.9

#: Shards of the fault drill's store and of each drift drill store,
#: and the fault drill's open-loop request rate.
N_SHARDS = 8
DRIFT_SHARDS = 64
RATE_RPS = 3000.0


def hottest_shards(scheme: str, requests: Sequence, n_shards: int,
                   top: int = 2) -> List[int]:
    """The ``top`` most-loaded shards for this stream under ``scheme``.

    Routing is deterministic, so counting a probe store's
    ``shard_for`` over the keys predicts exactly where the serving
    store will concentrate — stalling those shards guarantees the
    fault hits a known, large fraction of the traffic.
    """
    probe = ShardedStore(n_shards=n_shards, scheme=scheme)
    counts = Counter(probe.shard_for(request.key) for request in requests)
    return [shard for shard, _ in counts.most_common(top)]


def drill(scheme: str, requests: Sequence, *,
          stall_shards: Sequence[int] = (), seed: int = 0,
          store: Optional[ShardedStore] = None,
          injector: Optional[FaultInjector] = None) -> Dict:
    """One open-loop serving phase; returns the load-report payload.

    A provided ``store``/``injector`` is reused as-is (the frontend is
    still rebuilt — it holds asyncio primitives bound to the phase's
    event loop), which is how the self-healing drill keeps faults and
    quarantine state alive across phases.  Without them, a fresh store
    serves the phase and no fault is injected.

    Unlike :func:`repro.experiments.serving.measure` this deliberately
    does **not** publish the store's balance gauges: the drill's
    zipfian popularity skew is workload skew, not hashing drift, and
    must not leak into the drift drill's detector.
    """
    def build() -> Frontend:
        backend = store if store is not None else ShardedStore(
            n_shards=N_SHARDS, scheme=scheme, shard_capacity=256)
        return Frontend(
            backend,
            batch=BatchConfig(max_batch_size=32, max_wait_s=0.001),
            admission=AdmissionConfig(rate=None, burst=128,
                                      max_queue_depth=512),
            policy=FaultPolicy(timeout_s=P99_TARGET_S, max_retries=1),
            injector=injector,
            span_every=DRILL_SPAN_EVERY,
        )

    report = run_open_loop(build, requests, rate_rps=RATE_RPS,
                           arrival="bursty", seed=seed)
    payload = report.as_dict()
    payload["scheme"] = scheme
    payload["stall_shards"] = sorted(stall_shards)
    payload["faults"] = injector.stats() if injector is not None else {}
    return payload


def drift_drill(n_requests: int, n_shards: int, seed: int,
                detector: HashQualityDetector) -> Dict[str, Dict]:
    """Replay one strided stream per scheme; grade each telemetry."""
    statuses: Dict[str, Dict] = {}
    for scheme in DRIFT_SCHEMES:
        store = ShardedStore(n_shards=n_shards, scheme=scheme)
        requests = make_traffic("strided", n_requests, seed=seed)
        replay(store, requests)
        statuses[scheme] = detector.grade_telemetry(
            store.telemetry()).as_dict()
    return statuses


def _journal_chain(journal: Journal) -> Dict[str, Optional[int]]:
    """First-occurrence sequence numbers of the causal chain."""
    chain: Dict[str, Optional[int]] = {}
    for kind in ("serve.fault.stall", "serve.timeout",
                 "health.alert_fired", "control.quarantine",
                 "health.alert_resolved"):
        events = journal.find(kind)
        chain[kind] = events[0].seq if events else None
    return chain


def health_checks(healthy: Sequence[Mapping], stalled: Sequence[Mapping],
                  alerts: Sequence[Mapping], stall_payload: Mapping,
                  drift: Mapping[str, Mapping],
                  chain: Mapping[str, Optional[int]],
                  remediation: Mapping,
                  flight_events: Sequence[Mapping] = ()) -> Dict[str, bool]:
    """The watchdog + remediation contract, asserted on the artifact."""
    stall_seq = chain.get("serve.fault.stall")
    timeout_seq = chain.get("serve.timeout")
    alert_seq = chain.get("health.alert_fired")
    quarantine_seq = chain.get("control.quarantine")
    statuses = stall_payload["statuses"]
    actions = remediation.get("actions", [])
    post_alerts = remediation.get("post_alerts", [])
    return {
        "healthy_phase_quiet": not any(s["alerting"] for s in healthy),
        "stall_fires_fast_page": any(
            a["window"] == "fast" and a["slo"] == LATENCY_SLO
            for a in alerts),
        "stall_surfaces_explicitly": (
            statuses.get("timeout", 0) + statuses.get("rejected", 0) > 0),
        "journal_chain_ordered": (
            stall_seq is not None and timeout_seq is not None
            and alert_seq is not None
            and stall_seq < timeout_seq < alert_seq),
        # -- the closed loop: detect → remediate → recover --------------
        "controller_quarantines": any(
            a["kind"] == "quarantine" for a in actions),
        "quarantine_follows_page": (
            alert_seq is not None and quarantine_seq is not None
            and alert_seq < quarantine_seq),
        "fast_page_resolved": not any(
            a["window"] == "fast" and a["slo"] == LATENCY_SLO
            for a in post_alerts),
        # -- the page leaves evidence: a journaled flight dump whose
        # embedded slowest trace is a complete waterfall ----------------
        "flight_dump_journaled": len(flight_events) > 0,
        "flight_waterfall_complete": any(
            event["fields"].get("slowest", {}).get("stages")
            and event["fields"]["slowest"].get("coverage", 0.0)
            >= MIN_WATERFALL_COVERAGE
            for event in flight_events),
        "traditional_drift_trips": not drift["traditional"]["ok"],
        "pmod_within_band": drift["pmod"]["ok"],
        "pdisp_within_band": drift["pdisp"]["ok"],
    }


def run(scale: float = 1.0, seed: int = 0) -> Dict:
    """Both drills end to end; returns the artifact's data block.

    Runs on the process-wide registry/journal so the emitting layers,
    the SLO engine, and the detector all see one telemetry stream —
    enabling (and afterwards restoring) global observability when the
    caller has not.
    """
    was_enabled = get_registry().enabled
    prior_journal = get_journal()
    if not was_enabled:
        enable_observability()
    if not prior_journal.enabled:
        set_journal(Journal())  # in-memory: tail + find, no file
    try:
        journal = get_journal()
        # The process-wide collector's flight recorder: drill traces
        # land in it via the frontends' 1-in-DRILL_SPAN_EVERY sampling,
        # and the SLO engine dumps it the moment a page fires.
        flight = get_collector().flight
        flight.clear()
        engine = SloEngine(default_slos(p99_target_s=P99_TARGET_S),
                           registry=get_registry(), journal=journal,
                           flight=flight)
        n_healthy = max(200, int(600 * scale))
        healthy_requests = make_traffic("zipfian", n_healthy, seed=seed)
        healthy_payload = drill("pmod", healthy_requests, seed=seed)
        healthy_statuses = [s.as_dict() for s in engine.evaluate()]

        n_stalled = 2 * n_healthy
        stall_requests = make_traffic("zipfian", n_stalled, seed=seed + 1)
        stall_shards = hottest_shards("pmod", stall_requests, N_SHARDS)
        # The store and the (still-faulty) injector survive into the
        # recovery phase: the controller fixes routing, not the fault.
        fault_store = ShardedStore(n_shards=N_SHARDS, scheme="pmod",
                                   shard_capacity=256)
        fault_injector = FaultInjector(stall_s=0.25, seed=seed)
        for shard in stall_shards:
            fault_injector.stall(shard % N_SHARDS)
        stall_payload = drill("pmod", stall_requests,
                              stall_shards=stall_shards, seed=seed,
                              store=fault_store, injector=fault_injector)
        stalled_statuses = [s.as_dict() for s in engine.evaluate()]
        alerts = [a.as_dict() for a in engine.active_alerts()]

        # -- self-healing: controller remediates, SLO must recover ------
        controller = RemediationController(fault_store, engine,
                                           journal=journal,
                                           registry=get_registry())
        actions = [a.as_dict() for a in controller.step()]
        # Recovery traffic must outweigh the stalled phase ~3:1 so the
        # latency histogram's bounded fast window (4096 observations
        # per series) drains below the paging burn threshold.
        n_recovery = 3 * n_stalled
        recovery_requests = make_traffic("zipfian", n_recovery,
                                         seed=seed + 2)
        recovery_payload = drill("pmod", recovery_requests,
                                 stall_shards=stall_shards, seed=seed,
                                 store=fault_store,
                                 injector=fault_injector)
        recovery_statuses = [s.as_dict() for s in engine.evaluate()]
        post_alerts = [a.as_dict() for a in engine.active_alerts()]
        remediation = {
            "actions": actions,
            "quarantined": sorted(fault_store.routing.quarantined),
            "epoch": fault_store.epoch,
            "post_alerts": post_alerts,
        }

        detector = HashQualityDetector(strict_bands(DRIFT_SHARDS),
                                       registry=get_registry(),
                                       journal=journal)
        drift = drift_drill(max(512, int(4096 * scale)), DRIFT_SHARDS,
                            seed, detector)
        chain = _journal_chain(journal)
        flight_events = [e.as_dict()
                         for e in journal.find("obs.flight_dump")]
        by_kind: Dict[str, int] = {}
        for event in journal.tail():
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        return {
            "p99_target_s": P99_TARGET_S,
            "n_shards": N_SHARDS,
            "drift_shards": DRIFT_SHARDS,
            "healthy": {"payload": healthy_payload,
                        "slos": healthy_statuses},
            "stalled": {"payload": stall_payload,
                        "slos": stalled_statuses,
                        "stall_shards": stall_shards},
            "alerts": alerts,
            "remediation": remediation,
            "recovery": {"payload": recovery_payload,
                         "slos": recovery_statuses},
            "drift": drift,
            "flight": {
                "recorded": flight.recorded,
                "dumps": flight.dumps,
                "n_slow": len(flight.slowest()),
                "n_error": len(flight.errors()),
                "dump_events": flight_events,
            },
            "journal": {"events": journal.events,
                        "by_kind": by_kind, "chain": chain},
            "checks": health_checks(healthy_statuses, stalled_statuses,
                                    alerts, stall_payload, drift, chain,
                                    remediation,
                                    flight_events=flight_events),
        }
    finally:
        if not was_enabled:
            disable_observability()
        if not prior_journal.enabled:
            set_journal(prior_journal)


def render(data: Mapping) -> str:
    """Burn rates, alerts, drift verdicts, journal chain, checks."""
    from repro.reporting import format_table

    slo_rows = [
        [s["name"], f"{s['fast_burn']:.2f}", f"{s['slow_burn']:.2f}",
         "ALERT" if s["alerting"] else "ok"]
        for s in data["stalled"]["slos"]
    ]
    drift_rows = [
        [scheme, f"{st['balance']:.3f}", f"{st['concentration']:.3f}",
         "ok" if st["ok"] else "TRIPPED"]
        for scheme, st in data["drift"].items()
    ]
    sections = [
        format_table(
            ["slo", "fast burn", "slow burn", "verdict"], slo_rows,
            title=(f"SLO burn rates after stalling shards "
                   f"{data['stalled']['stall_shards']} "
                   f"(p99 target {data['p99_target_s'] * 1e3:g} ms)")),
        format_table(
            ["scheme", "balance", "concentration", "verdict"], drift_rows,
            title=(f"Hash-quality drift, strided stream, "
                   f"{data['drift_shards']} shards, strict bands")),
    ]
    alerts = data["alerts"]
    if alerts:
        sections.append("alerts after stall: " + "; ".join(
            f"[{a['severity']}] {a['message']}" for a in alerts))
    else:
        sections.append("alerts after stall: none")
    remediation = data.get("remediation", {})
    if remediation:
        action_names = [a["kind"] for a in remediation.get("actions", [])]
        post = remediation.get("post_alerts", [])
        sections.append(
            f"remediation: actions={action_names or 'none'}, "
            f"quarantined={remediation.get('quarantined', [])} "
            f"(epoch {remediation.get('epoch')}); "
            f"alerts after recovery: "
            f"{[a['slo'] + '/' + a['window'] for a in post] or 'none'}")
    flight = data.get("flight", {})
    if flight:
        dumps = flight.get("dump_events", [])
        line = (f"flight recorder: {flight.get('recorded', 0)} traces "
                f"recorded, {flight.get('n_slow', 0)} slow + "
                f"{flight.get('n_error', 0)} error retained, "
                f"{flight.get('dumps', 0)} dump(s)")
        if dumps:
            slowest = dumps[0]["fields"].get("slowest", {})
            if slowest:
                stages = ", ".join(
                    f"{s['name']} {s['duration_s'] * 1e3:.2f}ms"
                    for s in slowest.get("stages", []))
                line += (f"; page dump '{dumps[0]['fields']['reason']}' "
                         f"slowest trace {slowest.get('trace_id')} "
                         f"({slowest.get('wall_s', 0.0) * 1e3:.2f} ms): "
                         f"{stages}")
        sections.append(line)
    chain = data["journal"]["chain"]
    sections.append(
        "journal chain (seq): " + " -> ".join(
            f"{kind}@{seq}" for kind, seq in chain.items()))
    checks = data["checks"]
    verdict = "ok" if all(checks.values()) else "VIOLATED"
    failing = [name for name, ok in checks.items() if not ok]
    suffix = f" (failing: {', '.join(failing)})" if failing else ""
    sections.append(
        f"Health contract: {verdict} "
        f"({sum(checks.values())}/{len(checks)} checks hold){suffix}")
    return "\n\n".join(sections)


def _build(ctx: ExperimentContext) -> Dict:
    return run(scale=ctx.config.scale, seed=ctx.config.seed)


def _render_artifact(artifact: Mapping) -> str:
    return render(artifact["data"])


register(ExperimentSpec(
    name="health",
    title="Health: SLO burn-rate fault drill + hash-quality drift drill "
          "(extension)",
    build=_build,
    render=_render_artifact,
    uses_simulation=False,
))
