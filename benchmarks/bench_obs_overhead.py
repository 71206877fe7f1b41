"""Guard: observability must not tax the paths it watches.

Two gates, one file:

* **Disabled path** — `repro.cache.fastsim.simulate_misses` is the
  repo's hottest API; the obs layer hooks it only at the call
  boundary, and only when the registry is enabled.  The guard measures
  the disabled-registry wrapper against the bare core
  (`_simulate_misses_core`, the identical computation with no obs
  calls at all) in the same process, so the comparison is machine- and
  load-independent, and asserts the overhead stays under 2%.
* **Tracing-enabled path** — with observability on, turning request
  *tracing* on (the per-op sampling check and 1-in-16 sampled stage
  timelines on the cluster op path) must cost under 5% over the same
  metrics-on stream with the trace collector off.  Paired on one
  cluster instance so both sides pay identical metric, heavy-hitter
  and journal costs and the delta isolates tracing itself.

Both tests merge their rows into ``BENCH_obs.json`` at the repo root;
they run under plain pytest (``make obs-check``) — no benchmark-only
marker, they *are* the gate.
"""

import json
import statistics
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.cache.fastsim import _simulate_misses_core, simulate_misses
from repro.hashing import PrimeModuloIndexing
from repro.obs import get_registry
from repro.workloads import get_workload

L2_SETS = 2048
L2_ASSOC = 4

#: Disabled-path overhead budget (fraction of the bare-core time).
OVERHEAD_BUDGET = 0.02

#: Tracing-on overhead budget (fraction of the metrics-on, tracing-off
#: time for the same cluster op stream).
TRACING_BUDGET = 0.05

#: Replicated cluster ops per timed sample of the tracing gate.
TRACING_OPS = 2000

ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = ROOT / "BENCH_obs.json"
FASTSIM_BASELINE_PATH = ROOT / "BENCH_fastsim.json"


def _timed(fn, inner=3):
    """Mean seconds per call over ``inner`` back-to-back calls (the
    inner loop averages down per-call scheduler jitter)."""
    t0 = time.perf_counter()
    for _ in range(inner):
        fn()
    return (time.perf_counter() - t0) / inner


def _paired(run_base, run_test, repeats=11, inner=3):
    """Median paired overhead of ``run_test`` over ``run_base``.

    The old best-of protocol took each side's independent *minimum*,
    which samples two different noise tails and systematically reported
    a negative overhead (the test side's luckiest run beating the
    base's typical one).  Instead: ``repeats`` (>= 5) interleaved
    pairs, each pair timed back to back and alternating which side
    runs first (a fixed order hands the second side systematically
    warmer caches), and the reported overhead is the **median of the
    per-pair ratios** — pairing cancels the slow drift (thermal,
    frequency scaling) that dominates the raw run-to-run spread here.

    Returns ``(base_s, test_s, overhead_frac)`` where the times are
    the per-side medians (for reporting) and ``overhead_frac`` is the
    paired-median overhead (the gated statistic).
    """
    if repeats < 5:
        raise ValueError("need >= 5 interleaved repeats for a stable median")
    run_base(), run_test()  # untimed warmup: neither side pays cold start
    base_times, test_times, ratios = [], [], []
    for i in range(repeats):
        first, second = ((run_base, run_test) if i % 2 == 0
                         else (run_test, run_base))
        a, b = _timed(first, inner), _timed(second, inner)
        base, test = (a, b) if i % 2 == 0 else (b, a)
        base_times.append(base)
        test_times.append(test)
        ratios.append(test / base - 1.0)
    return (statistics.median(base_times), statistics.median(test_times),
            statistics.median(ratios))


def _measure(blocks, indexing, repeats=11):
    """Paired disabled-wrapper-vs-bare-core overhead (see _paired)."""
    return _paired(
        lambda: _simulate_misses_core(indexing, blocks, L2_ASSOC),
        lambda: simulate_misses(indexing, blocks, L2_ASSOC),
        repeats=repeats)


def _merge_bench(fields):
    """Merge ``fields`` into BENCH_obs.json (the two gates in this file
    each own a disjoint set of rows in the same document)."""
    doc = {}
    if BENCH_PATH.exists():
        try:
            doc = json.loads(BENCH_PATH.read_text())
        except (OSError, json.JSONDecodeError):
            doc = {}
    doc.update(fields)
    doc["bench"] = "obs_overhead"
    doc["generated_at"] = datetime.now(timezone.utc).isoformat(
        timespec="seconds")
    BENCH_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return doc


def test_disabled_observability_overhead():
    registry = get_registry()
    assert registry.enabled is False, (
        "guard must measure the disabled-registry path"
    )
    trace = get_workload("tree").trace(scale=4.0, seed=0)
    blocks = trace.block_addresses(64)
    indexing = PrimeModuloIndexing(L2_SETS)

    core_s, disabled_s, overhead = _measure(blocks, indexing)
    if overhead >= OVERHEAD_BUDGET:  # one retry with more repeats:
        core_s, disabled_s, overhead = _measure(blocks, indexing, repeats=21)

    baseline = None
    if FASTSIM_BASELINE_PATH.exists():
        baseline = json.loads(FASTSIM_BASELINE_PATH.read_text())

    print()
    print(f"accesses: {len(blocks)}")
    print(f"bare core: {core_s:.4f}s  disabled-obs wrapper: {disabled_s:.4f}s"
          f"  overhead: {overhead * 100:.2f}%  (budget "
          f"{OVERHEAD_BUDGET * 100:.0f}%)")

    _merge_bench({
        "accesses": len(blocks),
        "l2_sets": L2_SETS,
        "l2_assoc": L2_ASSOC,
        "core_s": core_s,
        "disabled_s": disabled_s,
        "overhead_frac": overhead,
        "overhead_budget_frac": OVERHEAD_BUDGET,
        "fastsim_baseline_vectorized_s":
            baseline["vectorized_s"] if baseline else None,
    })
    print(f"wrote {BENCH_PATH}")

    assert len(registry) == 0, "disabled run must record no series"
    assert overhead < OVERHEAD_BUDGET


def _cluster_stream(cluster, n_ops):
    """A fixed replicated put/get stream: the traced unit of work."""
    for i in range(n_ops // 2):
        cluster.put(f"k{i % 251}", i)
    for i in range(n_ops // 2):
        cluster.get(f"k{i % 251}")


def test_tracing_enabled_overhead():
    """Tracing on top of metrics-on serving must cost < TRACING_BUDGET.

    Both sides run the identical op stream on the *same* cluster with
    the registry enabled (so metric recording and the heavy-hitter
    updates that ride it cancel); only the trace collector's enabled
    flag differs.  The traced side pays the per-op sampling check and
    a 1-in-16 full stage timeline (three wall-clock stages +
    flight-recorder insert).
    """
    from repro.cluster import Cluster, ReplicationConfig
    from repro.obs import (
        disable_observability,
        enable_observability,
        get_collector,
    )

    enable_observability()
    try:
        cluster = Cluster(n_nodes=4, node_scheme="pmod",
                          shard_scheme="pmod", shards_per_node=8,
                          shard_capacity=512,
                          replication=ReplicationConfig(replicas=2))
        collector = get_collector()

        def run_untraced():
            collector.enabled = False
            _cluster_stream(cluster, TRACING_OPS)

        def run_traced():
            collector.enabled = True
            _cluster_stream(cluster, TRACING_OPS)

        untraced_s, traced_s, overhead = _paired(run_untraced, run_traced)
        if overhead >= TRACING_BUDGET:  # one retry with more repeats:
            untraced_s, traced_s, overhead = _paired(
                run_untraced, run_traced, repeats=21)
        n_traces = len(collector.traces())
    finally:
        disable_observability()
        get_collector().clear()

    print()
    print(f"cluster ops/sample: {TRACING_OPS}  sampled traces: {n_traces}")
    print(f"untraced: {untraced_s:.4f}s  traced: {traced_s:.4f}s"
          f"  overhead: {overhead * 100:.2f}%  (budget "
          f"{TRACING_BUDGET * 100:.0f}%)")

    _merge_bench({
        "tracing_ops": TRACING_OPS,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "tracing_overhead_frac": overhead,
        "tracing_overhead_budget_frac": TRACING_BUDGET,
    })
    print(f"wrote {BENCH_PATH}")

    assert n_traces > 0, "traced side must have sampled some traces"
    assert overhead < TRACING_BUDGET
