"""The suite's four workloads: seeded inputs, timed runs, output checks
and traced passes.

Run as a script, this module is the child process ``run.py`` starts for
one part of a run::

    python benchmarks/suite/workloads.py --part store-churn --seed 0 \\
        --seconds 15 --mode measure

and prints one JSON document as its last line of standard output.  Each
workload's load comes from this one process and one OS thread (a plain
loop, or the asyncio loop for the serving path); no sockets are used.

Timed work runs in short chunks (~50 ms of store or cluster ops, ~0.5 s
of requests, one Figure 7 cell), and every chunk's host time is
converted to reference seconds (see :mod:`refclock`): every reported
time and rate, and every ``seconds`` budget, is in reference seconds.

Every op a workload issues is checked against a model of what the
program must return, chunk by chunk outside the timed region;
``failed`` counts the ops that did not.
"""

import argparse
import asyncio
import json
import os
import resource
import statistics
import subprocess
import sys
from array import array
from dataclasses import asdict, dataclass
from itertools import product
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import repro
from repro.cluster import Cluster, ReplicationConfig
from repro.cpu.config import MachineConfig, build_hierarchy
from repro.cpu.simulator import Simulator
from repro.engine import RunConfig, SimulationEngine
from repro.memory import DramModel
from repro.serve import AdmissionConfig, BatchConfig, FaultPolicy, Frontend
from repro.store import ShardedStore
from repro.store.traffic import Request
from repro.workloads import NONUNIFORM_APPS, get_workload

from refclock import RefClock
from spans import SpanRecorder

WORKLOADS = ("serve-zipf", "store-churn", "cluster-r2", "paper-fig7")

SUITE = Path(__file__).resolve().parent
GOLDEN_DIR = SUITE / "golden"

GET, PUT, DELETE = 0, 1, 2

#: Batch size the serving path coalesces up to (batch_fill's base).
SERVE_BATCH = 32

#: Ops per timed chunk between probes: ~50 ms of store or cluster ops,
#: ~0.5 s of closed-loop requests.  A chunk of requests holds its
#: responses until it is checked, so it is a count rather than a time:
#: that keeps what the suite holds the same however fast the program is.
STORE_CHUNK = 16384
CLUSTER_CHUNK = 2048
SERVE_CHUNK = 6144

#: The cluster node killed at 50% of each rep and recovered at 75%.
VICTIM_NODE = 3

FIG7_SCHEMES = ("base", "8way", "xor", "pmod", "pdisp")

#: Simulated accesses per latency chunk (~40 ms) of a timed Figure 7
#: cell; the cell's speed factor applies to all of its chunks.
FIG7_LATENCY_CHUNK = 4096

NEVER = float("inf")

#: Once a rep has done its minimum of ops, it also ends when its host
#: time reaches this multiple of its budget, so a host running far
#: below the reference speed cannot stretch a run past its time limit.
MAX_SLOWDOWN = 2.0

#: Ops drawn at a time by :func:`key_stream`.  Drawing in blocks keeps
#: its temporaries small, so they do not set the peak RSS that
#: ``peak_rss_mb`` is measured against.
STREAM_BLOCK = 16384

#: Fewest ops a chunk needs for its p99 to count (ten beyond it).
MIN_CHUNK_OPS = 1000


# -- systems under test (module-level so tests can substitute fakes) ---


def make_serve_store() -> ShardedStore:
    return ShardedStore(n_shards=32, scheme="pmod", shard_capacity=512)


def make_frontend(store) -> Frontend:
    return Frontend(
        store,
        batch=BatchConfig(max_batch_size=SERVE_BATCH, max_wait_s=0.001),
        admission=AdmissionConfig(max_queue_depth=4096),
        policy=FaultPolicy(timeout_s=1.0, max_retries=1))


def make_store() -> ShardedStore:
    # 61 usable pmod shards x 256 = 15,616 entries.
    return ShardedStore(n_shards=64, scheme="pmod", shard_capacity=256)


def make_cluster() -> Cluster:
    # Capacity 2048 per shard holds every replica of 16,384 keys, so no
    # node evicts and a strict latest-value model applies.
    return Cluster(n_nodes=8, node_scheme="pmod", shard_scheme="pmod",
                   shards_per_node=16, shard_capacity=2048,
                   replication=ReplicationConfig(replicas=2))


# -- sizes -------------------------------------------------------------
#
# ``hit_prefix`` is both the stretch of the stream get_hit_rate is taken
# over and the fewest ops every rep runs, so the hit rate never depends
# on how far a timed rep got.


@dataclass(frozen=True)
class ServeSizes:
    n_keys: int = 4096
    alpha: float = 1.1
    put_frac: float = 0.1
    stream: int = 200_000
    hit_prefix: int = 60_000
    warmup: int = 10_000
    clients: int = 32
    reps: int = 3
    trace_warmup: int = 2_000
    open4k_s: float = 1.0
    open10k_s: float = 1.5


@dataclass(frozen=True)
class StoreSizes:
    n_keys: int = 262_144
    alpha: float = 0.9
    put_frac: float = 0.4
    delete_frac: float = 0.05
    stream: int = 1_500_000
    hit_prefix: int = 1_000_000
    reps: int = 3


@dataclass(frozen=True)
class ClusterSizes:
    n_keys: int = 16_384
    alpha: float = 1.1
    put_frac: float = 0.3
    delete_frac: float = 0.05
    stream: int = 400_000
    hit_prefix: int = 150_000
    reps: int = 3


@dataclass(frozen=True)
class Fig7Sizes:
    scale: float = 0.5
    apps: tuple = NONUNIFORM_APPS
    schemes: tuple = FIG7_SCHEMES


SERVE, STORE, CLUSTER, FIG7 = ServeSizes(), StoreSizes(), ClusterSizes(), \
    Fig7Sizes()


# -- inputs and statistics ----------------------------------------------


def key_stream(seed: int, salt: int, n: int, n_keys: int, alpha: float,
               put_frac: float, delete_frac: float = 0.0):
    """Zipf(alpha) keys over a shuffled keyspace plus iid op codes.

    Returns ``(keys, ops)`` as int64 / int8 arrays.  The same seed and
    salt always give the same stream.
    """
    rng = np.random.default_rng([seed, salt])
    cdf = np.arange(1, n_keys + 1, dtype=np.float64)
    np.power(cdf, -alpha, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    shuffled = rng.permutation(n_keys)
    keys = np.empty(n, dtype=np.int64)
    ops = np.empty(n, dtype=np.int8)
    for lo in range(0, n, STREAM_BLOCK):
        hi = min(n, lo + STREAM_BLOCK)
        keys[lo:hi] = shuffled[np.searchsorted(cdf, rng.random(hi - lo))]
        u = rng.random(hi - lo)
        ops[lo:hi] = np.where(u < put_frac, PUT,
                              np.where(u < put_frac + delete_frac, DELETE,
                                       GET))
    return keys, ops


def _more(done, floor, ref_s, wall_s, budget):
    """Whether a rep starts another chunk.  It runs at least ``floor``
    ops, and then until it has spent ``budget`` reference seconds or
    :data:`MAX_SLOWDOWN` times that in host seconds."""
    return done < floor or (ref_s < budget
                            and wall_s < MAX_SLOWDOWN * budget)


def summary(samples, n=None):
    """A metric as reported: the median of ``samples``, the sample
    count behind it (default: ``len(samples)``) and the quartiles
    across ``samples``."""
    samples = [float(s) for s in samples]
    value = statistics.median(samples)
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"value": value, "n": len(samples) if n is None else n,
            "q1": q1, "q3": q3}


class Latencies:
    """The per-op latencies of a run, kept as each timed chunk's p50
    and p99 in reference ms (host ms times the chunk's speed factor).

    The run's p50 is the median over all its chunks, across reps, of
    each chunk's p50.  Its p99 is the first quartile over chunks of each
    chunk's p99: other tenants of the host slow the tail of a µs-scale
    op (cache and memory traffic the speed probe does not see) far more
    than its median, so the tail is read from the quieter chunks.  A
    run-wide p99 would be set by whichever stalls landed in the run.
    Chunks with fewer than :data:`MIN_CHUNK_OPS` ops count only when no
    chunk has that many.
    """

    def __init__(self):
        self.chunks = []  #: (ops, p50 ms, p99 ms) per timed chunk

    def add(self, host_ms, factor):
        if len(host_ms):
            p50, p99 = np.percentile(host_ms, (50, 99)) * factor
            self.chunks.append((len(host_ms), float(p50), float(p99)))

    def metrics(self):
        full = [c for c in self.chunks if c[0] >= MIN_CHUNK_OPS] \
            or self.chunks
        n = sum(c[0] for c in self.chunks)
        p99 = summary([c[2] for c in full], n=n)
        return {"latency_p50_ms": summary([c[1] for c in full], n=n),
                "latency_p99_ms": {**p99, "value": p99["q1"]}}


def percentile_ms(latencies_s, q):
    return float(np.percentile(np.asarray(latencies_s), q)) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _report(reps, latencies, rss_base_mb, attempted, notes):
    """A measured workload's payload from its reps: ops_per_s is the
    median over reps, latencies are pooled over reps."""
    return {
        "metrics": {
            "ops_per_s": summary([r["tput_ops"] / r["tput_ref_s"]
                                  for r in reps]),
            **latencies.metrics(),
            "get_hit_rate": summary([r["hits"] / r["gets"] for r in reps],
                                    n=sum(r["gets"] for r in reps)),
        },
        "build_s": [r["setup_s"] for r in reps],
        "rss_base_mb": rss_base_mb,
        "attempted": attempted,
        "failed": sum(r["failed"] for r in reps),
        "notes": notes,
    }


# -- serve-zipf ----------------------------------------------------------


async def _closed_loop(frontend, keys, ops, model, base, clients,
                       limit=None, start=0):
    """``clients`` coroutines, each submitting its next request only
    after the previous response, from stream position ``start`` until
    ``limit``.  Returns ``(checks, latencies_s, next_position)``.

    The expected value of a get is fixed at submission: the frontend
    queues per shard in submission order, so a get must see the latest
    put submitted before it.
    """
    n = len(keys) if limit is None else min(limit, len(keys))
    cursor = start
    checks, latencies = [], []
    submit = frontend.submit

    async def client():
        nonlocal cursor
        while cursor < n:
            i = cursor
            cursor += 1
            key = keys[i]
            if ops[i] == PUT:
                expected = model[key] = base + i
                request = Request("put", key, value=expected)
            else:
                expected = model.get(key)
                request = Request("get", key)
            begin = perf_counter()
            response = await submit(request)
            latencies.append(perf_counter() - begin)
            checks.append((i, ops[i], key, expected, response))

    await asyncio.gather(*(client() for _ in range(clients)))
    return checks, latencies, cursor


async def _open_loop(frontend, keys, ops, model, base, rate_rps, seconds,
                     seed):
    """Poisson arrivals at ``rate_rps`` for ``seconds``.

    Each request is timed from its *due* time, so a stalled generator
    charges its delay to every request it held back; ``late_s`` records
    how far behind schedule each request was issued.
    """
    n = min(len(keys), max(1, int(rate_rps * seconds)))
    rng = np.random.default_rng([seed, int(rate_rps)])
    due = np.cumsum(rng.exponential(1.0 / rate_rps, size=n)).tolist()
    loop = asyncio.get_running_loop()
    checks, latencies, late, tasks = [], [], [], []
    submit = frontend.submit

    async def issue(i, due_at):
        key = keys[i]
        if ops[i] == PUT:
            expected = model[key] = base + i
            request = Request("put", key, value=expected)
        else:
            expected = model.get(key)
            request = Request("get", key)
        response = await submit(request)
        latencies.append(perf_counter() - due_at)
        checks.append((i, ops[i], key, expected, response))

    t0 = perf_counter()
    i = 0
    while i < n:
        now = perf_counter() - t0
        while i < n and due[i] <= now:
            late.append(now - due[i])
            tasks.append(loop.create_task(issue(i, t0 + due[i])))
            i += 1
        if i < n:
            await asyncio.sleep(due[i] - (perf_counter() - t0))
    await asyncio.gather(*tasks)
    return checks, latencies, late


class ServeCheck:
    """Checks one frontend's responses, a batch at a time.

    A response must be ``ok``; a get must return the latest value put
    for its key before it was submitted, or ``None`` when the key was
    never put or the store reported evicting it (a put's response
    carries the key it evicted).  ``gets``/``hits`` count only gets at
    stream positions below ``hit_prefix``.
    """

    def __init__(self, hit_prefix=NEVER):
        self.hit_prefix = hit_prefix
        self.evicted = set()
        self.checked = self.failed = self.gets = self.hits = 0

    def feed(self, checks, count_hits=True):
        evicted = self.evicted
        evicted.update(response.value for _, op, _, _, response in checks
                       if op == PUT and response.ok
                       and response.value is not None)
        self.checked += len(checks)
        for i, op, key, expected, response in checks:
            if not response.ok:
                self.failed += 1
                continue
            if op != GET:
                continue
            if response.value is None:
                if expected is not None and key not in evicted:
                    self.failed += 1
            elif response.value != expected:
                self.failed += 1
            if count_hits and i < self.hit_prefix:
                self.gets += 1
                self.hits += response.value is not None


async def _serve_timed(frontend, keys, ops, model, base, clients, clock,
                       check, latencies=None, budget=NEVER, floor=1,
                       limit=None):
    """Closed-loop chunks of :data:`SERVE_CHUNK` requests, each drained,
    checked and followed by a probe of the host, for at least ``floor``
    requests and then until ``budget`` (see :func:`_more`), or
    ``limit`` requests."""
    n = len(keys) if limit is None else min(limit, len(keys))
    ref = wall = 0.0
    cursor = 0
    while cursor < n and _more(cursor, floor, ref, wall, budget):
        clock.start()
        part, lat, cursor = await _closed_loop(
            frontend, keys, ops, model, base, clients,
            limit=min(n, cursor + SERVE_CHUNK), start=cursor)
        took, chunk_ref = clock.stop()
        ref += chunk_ref
        wall += took
        check.feed(part)
        if latencies is not None:
            latencies.add(np.asarray(lat) * 1e3, chunk_ref / took)
    return {"done": cursor, "ref_s": ref, "wall_s": wall}


async def _serve_rep(keys, ops, wkeys, wops, sizes, clock, latencies,
                     budget):
    check = ServeCheck(sizes.hit_prefix)
    clock.start()
    frontend = make_frontend(make_serve_store())
    async with frontend:
        model = {}
        warm, _, _ = await _closed_loop(frontend, wkeys, wops, model, 0,
                                        sizes.clients)
        _, setup = clock.stop()
        check.feed(warm, count_hits=False)
        run = await _serve_timed(frontend, keys, ops, model, len(wkeys),
                                 sizes.clients, clock, check, latencies,
                                 budget=budget - setup,
                                 floor=sizes.hit_prefix)
        mean_batch = frontend.stats()["mean_batch_size"]
    return {**run, "tput_ops": run["done"], "tput_ref_s": run["ref_s"],
            "setup_s": setup, "attempted": check.checked,
            "failed": check.failed, "gets": check.gets, "hits": check.hits,
            "mean_batch": mean_batch}


def _serve_streams(seed, sizes):
    """The main and warm-up request streams, as lists (the closed loop
    indexes them one request at a time)."""
    keys, ops = key_stream(seed, 1, sizes.stream, sizes.n_keys,
                           sizes.alpha, sizes.put_frac)
    wkeys, wops = key_stream(seed, 2, sizes.warmup, sizes.n_keys,
                             sizes.alpha, sizes.put_frac)
    return keys.tolist(), ops.tolist(), wkeys.tolist(), wops.tolist()


def serve_zipf(seed, seconds, sizes=SERVE):
    """Closed loop: ``sizes.clients`` in-loop clients, each rep on a
    fresh frontend after a warm-up, timed until its share of
    ``seconds`` runs out."""
    keys, ops, wkeys, wops = _serve_streams(seed, sizes)
    rss_base = peak_rss_mb()
    clock, latencies = RefClock(), Latencies()
    reps = [asyncio.run(_serve_rep(keys, ops, wkeys, wops, sizes, clock,
                                   latencies, seconds / sizes.reps))
            for _ in range(sizes.reps)]
    return _report(reps, latencies, rss_base,
                   sum(r["attempted"] for r in reps), notes={
                       "mean_batch": [r["mean_batch"] for r in reps],
                       "requests_per_rep": [r["done"] for r in reps],
                       "host_ops_per_s": [r["done"] / r["wall_s"]
                                          for r in reps]})


# -- store-churn and cluster-r2 -------------------------------------------


class OpCheck:
    """Checks a store's or a cluster's results, a chunk at a time,
    against a dict model of every live key's latest value.

    Every get must return the key's latest put value, or ``None`` once
    the key was deleted (a deleted key that reads a value has
    resurrected) or, for a store, evicted: a store's put returns the key
    it evicted.  A cluster must evict nothing; its put returns how many
    replicas acknowledged it, which must be at least one.  Every delete
    must report whether the key was live.  ``gets``/``hits`` count only
    gets among the first ``hit_prefix`` ops.
    """

    def __init__(self, evicting, hit_prefix=NEVER):
        self.evicting = evicting
        self.hit_prefix = hit_prefix
        self.model = {}
        self.failed = self.gets = self.hits = 0

    def feed(self, keys, ops, lo, results):
        """Check ``results`` (``-1`` for ``None``) of ops ``lo``,
        ``lo + 1``, ..."""
        model, evicting, prefix = self.model, self.evicting, self.hit_prefix
        failed = gets = hits = 0
        hi = lo + len(results)
        for i, key, op, r in zip(range(lo, hi), keys[lo:hi].tolist(),
                                 ops[lo:hi].tolist(), results):
            if op == PUT:
                model[key] = i
                if evicting:
                    if r >= 0:
                        model.pop(r, None)
                elif r < 1:
                    failed += 1
            elif op == DELETE:
                failed += r != (model.pop(key, None) is not None)
            else:
                failed += r != model.get(key, -1)
                if i < prefix:
                    gets += 1
                    hits += r >= 0
        self.failed += failed
        self.gets += gets
        self.hits += hits


class Outage:
    """Kills :data:`VICTIM_NODE` of a cluster and later recovers it.

    Each trigger is a ``(reference seconds, op index)`` pair, checked
    between chunks; it fires at whichever comes first.  A trigger the
    run ends before fires after its last chunk, so every run kills and
    recovers the node, and a rerun given the op indices ``fail_i`` and
    ``recover_i`` with :data:`NEVER` times repeats the schedule exactly.
    """

    def __init__(self, cluster, fail_at, recover_at):
        self.cluster = cluster
        self.fail_at, self.recover_at = fail_at, recover_at
        self.fail_i = self.recover_i = None
        self.copied = 0
        self.recover_ref_s = 0.0

    def step(self, clock, done, ref_s, final=False):
        """Fire what is due; returns the ``(host, reference)`` seconds
        the recovery took, if it ran."""
        def due(at):
            return final or ref_s >= at[0] or done >= at[1]

        if self.fail_i is None:
            if due(self.fail_at):
                self.cluster.fail_node(VICTIM_NODE)
                self.fail_i = done
            if not final:
                return 0.0, 0.0
        if self.recover_i is None and due(self.recover_at):
            clock.start()
            self.copied = self.cluster.recover_node(VICTIM_NODE).copied
            took, self.recover_ref_s = clock.stop()
            self.recover_i = done
            return took, self.recover_ref_s
        return 0.0, 0.0


def _run_ops(system, keys, ops, clock, check, chunk, latencies=None,
             budget=NEVER, floor=0, limit=None, outage=None):
    """Issue ``keys``/``ops`` straight at ``system`` (a store or a
    cluster) in chunks of ``chunk`` ops, each fed to ``check`` after it
    is timed, for at least ``floor`` ops and two chunks and then until
    ``budget`` (see :func:`_more`), or ``limit`` ops.

    With ``latencies``, every other chunk times each of its ops; the
    throughput (``tput_ops`` over ``tput_ref_s``) counts only the other
    chunks, so it pays nothing for the timing.  ``outage`` runs before
    throughput chunks and once more after the last chunk; the recovery
    counts as throughput time.
    """
    n = len(keys) if limit is None else min(limit, len(keys))
    floor = max(floor, 2 * chunk)
    get, put, delete = system.get, system.put, system.delete
    ref = wall = tput_ref = 0.0
    tput_ops = done = 0
    while done < n and _more(done, floor, ref, wall, budget):
        timed = latencies is not None and (done // chunk) % 2 == 1
        if outage is not None and not timed:
            took, spent = outage.step(clock, done, ref)
            ref, wall, tput_ref = ref + spent, wall + took, tput_ref + spent
        hi = min(n, done + chunk)
        results = array("q")
        keep = results.append
        items = zip(range(done, hi), keys[done:hi].tolist(),
                    ops[done:hi].tolist())
        clock.start()
        if timed:
            host_ns = array("q")
            lap = host_ns.append
            for i, key, op in items:
                t = perf_counter_ns()
                if op == GET:
                    r = get(key)
                elif op == PUT:
                    r = put(key, i)
                else:
                    r = delete(key)
                lap(perf_counter_ns() - t)
                keep(-1 if r is None else r)
        else:
            for i, key, op in items:
                if op == GET:
                    r = get(key)
                elif op == PUT:
                    r = put(key, i)
                else:
                    r = delete(key)
                keep(-1 if r is None else r)
        took, chunk_ref = clock.stop()
        ref += chunk_ref
        wall += took
        if timed:
            latencies.add(np.frombuffer(host_ns, dtype=np.int64) / 1e6,
                          chunk_ref / took)
        else:
            tput_ref += chunk_ref
            tput_ops += hi - done
        check.feed(keys, ops, done, results)
        done = hi
    if outage is not None:
        took, spent = outage.step(clock, done, ref, final=True)
        ref, wall, tput_ref = ref + spent, wall + took, tput_ref + spent
    return {"done": done, "ref_s": ref, "wall_s": wall,
            "tput_ops": tput_ops, "tput_ref_s": tput_ref}


def _store_evictions(store):
    return sum(shard.stats.evictions for shard in store.shards)


def store_churn(seed, seconds, sizes=STORE):
    """Direct get/put/delete on a store whose working set is ~17x its
    capacity; each rep starts from a fresh, empty store."""
    keys, ops = key_stream(seed, 3, sizes.stream, sizes.n_keys, sizes.alpha,
                           sizes.put_frac, sizes.delete_frac)
    rss_base = peak_rss_mb()
    clock, latencies = RefClock(), Latencies()
    reps = []
    for _ in range(sizes.reps):
        clock.start()
        store = make_store()
        _, setup = clock.stop()
        check = OpCheck(evicting=True, hit_prefix=sizes.hit_prefix)
        run = _run_ops(store, keys, ops, clock, check, STORE_CHUNK,
                       latencies, budget=seconds / sizes.reps - setup,
                       floor=sizes.hit_prefix)
        reps.append({**run, "setup_s": setup, "failed": check.failed,
                     "gets": check.gets, "hits": check.hits,
                     "evictions": _store_evictions(store)})
    return _report(reps, latencies, rss_base,
                   sum(r["done"] for r in reps), notes={
                       "ops_per_rep": [r["done"] for r in reps],
                       "evictions_per_rep": [r["evictions"] for r in reps],
                       "host_ops_per_s": [r["done"] / r["wall_s"]
                                          for r in reps]})


def sweep_cluster(cluster, check, n_keys):
    """Failures of a final sweep: every live key must read its latest
    value and every other key ``None``, and no node may have evicted
    anything."""
    model = check.model
    failed = sum(cluster.get(key) != model.get(key) for key in range(n_keys))
    return failed + sum(shard.stats.evictions for node in cluster.nodes
                        for shard in node.store.shards)


def _cluster_schedule(budget, n):
    """Kill at 50% and recover at 75% of the rep, by time, or by stream
    position when the stream would run out first."""
    return (0.5 * budget, n // 2), (0.75 * budget, 3 * n // 4)


def cluster_r2(seed, seconds, sizes=CLUSTER):
    """Replicated ops through two-level routing; each rep kills a node
    at 50% of its time and recovers it at 75%."""
    keys, ops = key_stream(seed, 4, sizes.stream, sizes.n_keys, sizes.alpha,
                           sizes.put_frac, sizes.delete_frac)
    rss_base = peak_rss_mb()
    clock, latencies = RefClock(), Latencies()
    reps = []
    for _ in range(sizes.reps):
        clock.start()
        cluster = make_cluster()
        _, setup = clock.stop()
        budget = seconds / sizes.reps - setup
        check = OpCheck(evicting=False, hit_prefix=sizes.hit_prefix)
        outage = Outage(cluster, *_cluster_schedule(budget, len(keys)))
        run = _run_ops(cluster, keys, ops, clock, check, CLUSTER_CHUNK,
                       latencies, budget=budget, floor=sizes.hit_prefix,
                       outage=outage)
        reps.append({
            **run, "setup_s": setup, "gets": check.gets, "hits": check.hits,
            "failed": check.failed + sweep_cluster(cluster, check,
                                                   sizes.n_keys),
            "copied": outage.copied,
            "sim_p99_us": cluster.sim_latency_percentiles()["p99"] * 1e6})
    return _report(reps, latencies, rss_base,
                   sum(r["done"] + sizes.n_keys for r in reps), notes={
                       "ops_per_rep": [r["done"] for r in reps],
                       "sim_op_p99_us": [r["sim_p99_us"] for r in reps],
                       "rereplicated_keys": [r["copied"] for r in reps],
                       "host_ops_per_s": [r["done"] / r["wall_s"]
                                          for r in reps]})


# -- paper-fig7 ----------------------------------------------------------


def golden_path(seed: int) -> Path:
    return GOLDEN_DIR / f"fig7-seed{seed}.json"


def load_golden(seed: int, sizes=FIG7):
    """The committed Figure 7 grid for ``seed``, or None (only the full
    grid has golden files)."""
    path = golden_path(seed)
    if sizes != FIG7 or not path.exists():
        return None
    return json.loads(path.read_text())


def check_fig7(results, golden, accesses):
    """Number of cells that fail their check.

    With a golden grid every :class:`ExecutionResult` field must match
    exactly; otherwise each cell must at least be self-consistent.
    """
    failed = 0
    for (app, scheme), result in results.items():
        row = asdict(result)
        if golden is not None:
            failed += row != golden.get(f"{app}/{scheme}")
        else:
            failed += not (0 <= result.l2_misses <= result.l2_accesses
                           and 0 <= result.l1_misses <= accesses[app]
                           and result.cycles > 0)
    return failed


def fig7_grid(seed, sizes=FIG7):
    """One untimed Figure 7 grid, as the figure code computes it."""
    engine = SimulationEngine(RunConfig(scale=sizes.scale, seed=seed),
                              jobs=1)
    return engine.run_grid(sizes.apps, sizes.schemes)


def write_golden(seed: int) -> Path:
    grid = fig7_grid(seed)
    path = golden_path(seed)
    path.write_text(json.dumps(
        {f"{app}/{scheme}": asdict(result)
         for (app, scheme), result in grid.items()}, indent=1) + "\n")
    return path


def _build_cell(scheme, machine):
    hierarchy = build_hierarchy(scheme, machine)
    dram = DramModel(machine.dram_config())
    return Simulator(hierarchy, dram, machine, scheme=scheme)


def _ticked_run(sim, trace):
    """``sim.run(trace)`` while recording the host ns at which each
    access reaches the hierarchy; the gap between two such ticks is one
    simulated access end to end.  Returns ``(result, ticks)``."""
    ticks = array("q")
    lap = ticks.append
    access = sim.hierarchy.access

    def ticked(address, write):
        lap(perf_counter_ns())
        return access(address, write)

    sim.hierarchy.access = ticked
    return sim.run(trace), ticks


def paper_fig7(seed, seconds, sizes=FIG7):
    """Whole Figure 7 grid passes, caches starting empty, each pass on
    a fresh :class:`SimulationEngine`; each cell is one timed chunk.

    In the grid's app-major order, even cells run through
    ``engine.result`` and give ops_per_s.  Odd cells run on a simulator
    the suite builds, which times every access and gives the latencies.
    A new pass starts only if the last one would still fit in
    ``seconds``.
    """
    machine = MachineConfig.paper_default()
    rss_base = peak_rss_mb()
    clock, latencies = RefClock(), Latencies()
    build_s = []
    for _ in range(5):
        clock.start()
        _build_cell("pmod", machine)
        build_s.append(clock.stop()[1])
    golden = load_golden(seed, sizes)
    start_ref = clock.ref_s
    passes = []
    while True:
        engine = SimulationEngine(RunConfig(scale=sizes.scale, seed=seed),
                                  jobs=1)
        results, accesses = {}, {}
        pass_ref = clock.ref_s
        tput_ref = tput_wall = 0.0
        tput_accesses = 0
        for k,(app, scheme) in enumerate(product(sizes.apps,
                                                  sizes.schemes)):
            trace = engine.traces.get(app)  # ~2 ms, once per app
            accesses[app] = len(trace)
            if k % 2 == 0:
                clock.start()
                results[(app, scheme)] = engine.result(app, scheme)
                took, ref = clock.stop()
                tput_ref += ref
                tput_wall += took
                tput_accesses += len(trace)
            else:
                sim = _build_cell(scheme, machine)
                clock.start()
                results[(app, scheme)], ticks = _ticked_run(sim, trace)
                took, ref = clock.stop()
                host_ms = np.diff(np.frombuffer(ticks, dtype=np.int64)) / 1e6
                for lo in range(0, len(host_ms), FIG7_LATENCY_CHUNK):
                    latencies.add(host_ms[lo:lo + FIG7_LATENCY_CHUNK],
                                  ref / took)
        passes.append({"results": results, "accesses": accesses,
                       "rate": tput_accesses / tput_ref,
                       "host_rate": tput_accesses / tput_wall,
                       "ref_s": clock.ref_s - pass_ref,
                       "failed": check_fig7(results, golden, accesses)})
        if clock.ref_s - start_ref + passes[-1]["ref_s"] > seconds:
            break
    first = passes[0]["results"]
    l2_accesses = sum(r.l2_accesses for r in first.values())
    l2_misses = sum(r.l2_misses for r in first.values())
    return {
        "metrics": {
            "ops_per_s": summary([p["rate"] for p in passes]),
            **latencies.metrics(),
            "get_hit_rate": summary([1.0 - l2_misses / l2_accesses],
                                    n=l2_accesses),
        },
        "build_s": build_s,
        "rss_base_mb": rss_base,
        "attempted": sum(len(p["results"]) for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "notes": {"passes": len(passes),
                  "golden": (golden_path(seed).name if golden is not None
                             else "no golden"),
                  "host_ops_per_s": [p["host_rate"] for p in passes]},
    }


MEASURE = {"serve-zipf": serve_zipf, "store-churn": store_churn,
           "cluster-r2": cluster_r2, "paper-fig7": paper_fig7}


# -- traced passes -------------------------------------------------------
#
# Each pass runs the workload untraced for ``seconds``, then runs the
# same ops again on a fresh system with the span recorder wrapped around
# every layer the workload touches.  No op is timed on its own here.
# Fractions are of the traced run's host time; tracing_overhead_frac
# compares the two runs' reference times.


def _frac(recorder, layer, wall_s, own=False):
    spent = recorder.self_s(layer) if own else recorder.total_s(layer)
    return spent / wall_s


async def _serve_traced(keys, ops, wkeys, wops, sizes, seconds, recorder,
                        seed):
    out = {}
    clock = RefClock()
    checked = failed = 0

    async def run(budget=NEVER, limit=None, traced=False):
        nonlocal checked, failed
        check = ServeCheck()
        frontend = make_frontend(make_serve_store())
        async with frontend:
            model = {}
            warm, _, _ = await _closed_loop(frontend, wkeys, wops, model, 0,
                                            sizes.clients,
                                            limit=sizes.trace_warmup)
            check.feed(warm)
            if traced:
                store = frontend.store
                for op in ("get", "put", "delete"):
                    recorder.wrap(store, op, "store.engine")
                recorder.wrap(store, "shard_for", "store.engine.route")
                recorder.wrap(frontend._store_batcher, "submit",
                              "serve.batcher.submit")
            timed = await _serve_timed(frontend, keys, ops, model,
                                       len(wkeys), sizes.clients, clock,
                                       check, budget=budget, limit=limit)
            timed["batch"] = frontend.stats()["mean_batch_size"]
        checked += check.checked
        failed += check.failed
        return timed

    untraced = await run(budget=seconds)
    traced = await run(limit=untraced["done"], traced=True)
    wall = traced["wall_s"]
    out["store.engine.busy_frac"] = _frac(recorder, "store.engine", wall)
    out["store.engine.route_frac"] = _frac(recorder, "store.engine.route",
                                           wall)
    out["serve.batcher.submit_frac"] = _frac(
        recorder, "serve.batcher.submit", wall)
    out["serve.frontend.self_frac"] = 1.0 - recorder.root_ns / 1e9 / wall
    out["serve.batch_fill"] = untraced["batch"] / SERVE_BATCH
    out["tracing_overhead_frac"] = traced["ref_s"] / untraced["ref_s"] - 1.0

    for name, rate, length in (("open4k", 4000.0, sizes.open4k_s),
                               ("open10k", 10000.0, sizes.open10k_s)):
        check = ServeCheck()
        frontend = make_frontend(make_serve_store())
        async with frontend:
            model = {}
            warm, _, _ = await _closed_loop(frontend, wkeys, wops, model, 0,
                                            sizes.clients,
                                            limit=sizes.trace_warmup)
            opened, latencies, late = await _open_loop(
                frontend, keys, ops, model, len(wkeys), rate, length, seed)
        check.feed(warm + opened)
        checked += check.checked
        failed += check.failed
        out[f"serve.{name}_p50_ms"] = percentile_ms(latencies, 50)
        if name == "open10k":
            out["serve.open10k_p99_ms"] = percentile_ms(latencies, 99)
            out["serve.loadgen.late_p99_ms"] = percentile_ms(late, 99)
    return out, checked, failed


def serve_zipf_traced(seed, seconds, recorder, sizes=SERVE):
    keys, ops, wkeys, wops = _serve_streams(seed, sizes)
    return asyncio.run(_serve_traced(keys, ops, wkeys, wops, sizes, seconds,
                                     recorder, seed))


def store_churn_traced(seed, seconds, recorder, sizes=STORE):
    keys, ops = key_stream(seed, 3, sizes.stream, sizes.n_keys, sizes.alpha,
                           sizes.put_frac, sizes.delete_frac)
    clock = RefClock()
    store = make_store()
    check = OpCheck(evicting=True)
    untraced = _run_ops(store, keys, ops, clock, check, STORE_CHUNK,
                        budget=seconds)
    evictions = _store_evictions(store)
    puts = sum(shard.stats.puts for shard in store.shards)

    store = make_store()
    for op in ("get", "put", "delete"):
        recorder.wrap(store, op, "store.engine")
        for shard in store.shards:
            recorder.wrap(shard, op, "store.shard")
    recheck = OpCheck(evicting=True)
    traced = _run_ops(store, keys, ops, clock, recheck, STORE_CHUNK,
                      limit=untraced["done"])
    wall = traced["wall_s"]
    return {
        "store.shard.busy_frac": _frac(recorder, "store.shard", wall),
        "store.engine.self_frac": _frac(recorder, "store.engine", wall,
                                        own=True),
        "store.shard.evictions_per_put": evictions / puts,
        "tracing_overhead_frac": traced["ref_s"] / untraced["ref_s"] - 1.0,
    }, 2 * untraced["done"], check.failed + recheck.failed


def cluster_r2_traced(seed, seconds, recorder, sizes=CLUSTER):
    keys, ops = key_stream(seed, 4, sizes.stream, sizes.n_keys, sizes.alpha,
                           sizes.put_frac, sizes.delete_frac)
    clock = RefClock()
    cluster = make_cluster()
    check = OpCheck(evicting=False)
    outage = Outage(cluster, *_cluster_schedule(seconds, len(keys)))
    run = _run_ops(cluster, keys, ops, clock, check, CLUSTER_CHUNK,
                   budget=seconds, outage=outage)
    failed = check.failed + sweep_cluster(cluster, check, sizes.n_keys)

    traced = make_cluster()
    for op in ("get", "put", "delete"):
        recorder.wrap(traced, op, "cluster.engine")
        for node in traced.nodes:
            recorder.wrap(node.store, op, "store.engine")
    recorder.wrap(traced.router, "replicas", "cluster.router")
    recorder.wrap(traced.fabric, "round_trip", "cluster.interconnect")
    recheck = OpCheck(evicting=False)
    rerun = _run_ops(traced, keys, ops, clock, recheck, CLUSTER_CHUNK,
                     limit=run["done"],
                     outage=Outage(traced, (NEVER, outage.fail_i),
                                   (NEVER, outage.recover_i)))
    wall = rerun["wall_s"]
    metrics = {
        "cluster.router.busy_frac": _frac(recorder, "cluster.router", wall),
        "cluster.interconnect.busy_frac": _frac(
            recorder, "cluster.interconnect", wall),
        "store.engine.busy_frac": _frac(recorder, "store.engine", wall),
        "cluster.engine.self_frac": _frac(recorder, "cluster.engine", wall,
                                          own=True),
        "cluster.rereplicate.keys_per_s": outage.copied
        / outage.recover_ref_s,
        "tracing_overhead_frac": rerun["ref_s"] / run["ref_s"] - 1.0,
    }
    # The sweep's calls are traced too, so it runs after the fractions
    # of the rerun's wall time are taken.
    failed += recheck.failed + sweep_cluster(traced, recheck, sizes.n_keys)
    return metrics, 2 * (run["done"] + sizes.n_keys), failed


def fig7_cell_order(sizes=FIG7):
    """Every grid cell once, interleaving apps and schemes so that a
    short prefix of the order already samples most of both (in the
    Figure 7 grid the two counts are coprime, so the diagonal walk
    alone visits every cell)."""
    apps, schemes = sizes.apps, sizes.schemes
    diagonal = [(apps[k % len(apps)], schemes[k % len(schemes)])
                for k in range(len(apps) * len(schemes))]
    grid = [(app, scheme) for app in apps for scheme in schemes]
    return list(dict.fromkeys(diagonal + grid))


def paper_fig7_traced(seed, seconds, recorder, sizes=FIG7):
    """Builds each cell with ``build_hierarchy``/``DramModel``/
    ``Simulator`` itself so the hierarchy, both caches and the DRAM can
    be wrapped; the traced results must equal the untraced ones."""
    machine = MachineConfig.paper_default()
    clock = RefClock()
    traces, untraced = {}, {}
    for app, scheme in fig7_cell_order(sizes):
        if app not in traces:
            traces[app] = get_workload(app).trace(scale=sizes.scale,
                                                  seed=seed)
        clock.start()
        untraced[(app, scheme)] = _build_cell(scheme, machine).run(
            traces[app])
        clock.stop()
        if clock.ref_s >= seconds:
            break
    untraced_ref, untraced_wall = clock.ref_s, clock.wall_s
    traced = {}
    for app, scheme in untraced:
        clock.start()
        sim = _build_cell(scheme, machine)
        hierarchy = sim.hierarchy
        # Each access is a top-level op; the simulator's own time is
        # what the top-level hierarchy and DRAM spans leave uncovered.
        recorder.wrap(hierarchy, "access", "cache.hierarchy")
        recorder.wrap(hierarchy.l1, "access", "cache.setassoc.l1")
        recorder.wrap(hierarchy.l2, "access", "cache.setassoc.l2")
        recorder.wrap(sim.dram, "service", "memory.dram")
        traced[(app, scheme)] = sim.run(traces[app])
        clock.stop()
    traced_ref = clock.ref_s - untraced_ref
    wall = clock.wall_s - untraced_wall
    accesses = {app: len(trace) for app, trace in traces.items()}
    golden = load_golden(seed, sizes)
    failed = sum(traced[cell] != untraced[cell] for cell in untraced)
    failed += check_fig7(untraced, golden, accesses)
    simulated = sum(accesses[app] for app, _ in untraced)
    return {
        "cpu.simulator.self_frac": 1.0 - recorder.root_ns / 1e9 / wall,
        "cache.hierarchy.self_frac": _frac(recorder, "cache.hierarchy", wall,
                                           own=True),
        "cache.setassoc.l1.busy_frac": _frac(recorder, "cache.setassoc.l1",
                                             wall),
        "cache.setassoc.l2.busy_frac": _frac(recorder, "cache.setassoc.l2",
                                             wall),
        "memory.dram.busy_frac": _frac(recorder, "memory.dram", wall),
        "cache.l1.miss_rate": sum(r.l1_misses for r in traced.values())
        / simulated,
        "cache.l2.miss_rate": sum(r.l2_misses for r in traced.values())
        / sum(r.l2_accesses for r in traced.values()),
        "tracing_overhead_frac": traced_ref / untraced_ref - 1.0,
    }, 2 * len(untraced), failed


TRACED = {"serve-zipf": serve_zipf_traced, "store-churn": store_churn_traced,
          "cluster-r2": cluster_r2_traced, "paper-fig7": paper_fig7_traced}


# -- child entry point ---------------------------------------------------


#: Run in a fresh interpreter: prints the reference seconds it took to
#: import this module and everything it imports, at the mean speed of
#: probes taken just before and just after.
_IMPORT_PROBE = """
from time import perf_counter, process_time
import refclock
before = refclock.probe()
wall0, cpu0 = perf_counter(), process_time()
import workloads
wall, busy = perf_counter() - wall0, min(perf_counter() - wall0,
                                         process_time() - cpu0)
print(wall - busy + busy * (before + refclock.probe()) / 2)
"""


def import_seconds(repeats=5):
    """Median reference seconds to import the suite and the program,
    each time in a fresh interpreter, as a workload's child does."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                              cwd=SUITE, env=env, check=True,
                              stdout=subprocess.PIPE, text=True, timeout=60)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_part(part, mode, seed, seconds, spans_path=None, sizes=None):
    """One child's work: a measured workload, a traced pass, or the
    layer ladder.  Returns the JSON-ready payload.  ``sizes`` replaces
    the part's default sizes (the tests run every part this way)."""
    extra = {} if sizes is None else {"sizes": sizes}
    if part == "ladder":
        import ladder
        metrics = ladder.run(seed, **extra)
        return {"metrics": metrics, "attempted": len(metrics), "failed": 0,
                "notes": {}}
    if mode == "trace":
        recorder = SpanRecorder()
        metrics, attempted, failed = TRACED[part](seed, seconds, recorder,
                                                  **extra)
        if spans_path:
            recorder.write(spans_path)
        return {"metrics": {f"{part}.{name}": value
                            for name, value in metrics.items()},
                "attempted": attempted, "failed": failed, "notes": {}}
    import_s = import_seconds()
    result = MEASURE[part](seed, seconds, **extra)
    result["metrics"]["setup_s"] = summary(
        [import_s + b for b in result.pop("build_s")])
    # The peak RSS the workload added above the child's level once its
    # inputs were built: the program's memory plus a chunk's records.
    base = result.pop("rss_base_mb")
    result["metrics"]["peak_rss_mb"] = summary([peak_rss_mb() - base])
    result["notes"].update(import_s=import_s, rss_base_mb=base)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--part", required=True,
                        choices=WORKLOADS + ("ladder",))
    parser.add_argument("--mode", choices=("measure", "trace"),
                        default="measure")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", default=None,
                        help="write sampled spans to this JSON file")
    args = parser.parse_args(argv)
    payload = run_part(args.part, args.mode, args.seed, args.seconds,
                       args.spans)
    payload["numpy"] = np.__version__
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
