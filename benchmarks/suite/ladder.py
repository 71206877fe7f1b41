"""The layer ladder: one seeded key stream timed at each rung.

Each rung is paired with the rung(s) below it and timed with the
paired, interleaved, median-of-ratio method (:func:`paired`): the rung
reports ``ns_per_*`` and ``delta_ns``, its own cost over the rung below
on the same keys, both in reference ns (see :mod:`refclock`).  Rungs,
bottom up:

* hashing — scalar ``index`` and vector ``index_array`` per scheme, the
  Mersenne shift-add fold, and each scheme's Eq. 1 balance and Eq. 2
  concentration on a strided stream;
* store — ``ShardSelector.shard``, ``Shard.get/put``,
  ``ShardedStore.get/put``, ``store.driver.replay``;
* serve — ``Batcher`` with a no-op executor, ``Frontend`` closed loop;
* cluster — ``ClusterRouter.replicas``, ``Cluster.put/get``;
* paper path — pMod L2 ``access``, ``CacheHierarchy.access``,
  ``Simulator.run`` per access, ``fastsim.simulate_misses`` per access,
  and one Figure 7 cell through ``SimulationEngine``.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.cache import SetAssociativeCache
from repro.cache.fastsim import simulate_misses
from repro.cpu.config import MachineConfig, build_hierarchy, build_l2
from repro.engine import RunConfig, SimulationEngine
from repro.hashing import (
    PrimeModuloIndexing,
    TraditionalIndexing,
    balance,
    concentration,
    derive_constants,
    mersenne_fold,
    DEFAULT_KEY,
)
from repro.serve import BatchConfig, Batcher, WorkItem
from repro.store import STORE_SCHEMES, Shard, make_selector, replay
from repro.store.traffic import Request
from repro.trace.records import Trace
from repro.workloads import get_workload

import workloads
from refclock import RefClock

SCHEMES = ("traditional", "xor", "pmod", "pdisp", "keyed", "keyed_pdisp")

#: Set count of the paper's L2 (Table 3), the geometry every hashing
#: rung indexes into.
L2_SETS = MachineConfig.paper_default().l2_sets

OP_NAMES = {workloads.GET: "get", workloads.PUT: "put",
            workloads.DELETE: "delete"}


@dataclass(frozen=True)
class LadderSizes:
    keys: int = 2000          #: keys per unit for the scalar rungs
    vector: int = 65536       #: keys per index_array call
    slow: int = 500           #: keys per unit for serve/cluster rungs
    simulated: int = 2000     #: accesses per unit for the cache rungs
    fastsim: int = 20000      #: accesses per fastsim / pMod-loop unit
    repeats: int = 11         #: paired repeats per rung
    cell_repeats: int = 3     #: Figure 7 cell runs (median reported)
    cell_app: str = "mcf"
    cell_scale: float = 0.5


LADDER = LadderSizes()


def _timed(fn, inner=3):
    """Mean seconds per call over ``inner`` back-to-back calls."""
    t0 = time.perf_counter()
    for _ in range(inner):
        fn()
    return (time.perf_counter() - t0) / inner


def paired(run_base, run_test, repeats=11, inner=3):
    """Median paired overhead of ``run_test`` over ``run_base``.

    ``repeats`` interleaved pairs, each timed back to back and
    alternating which side runs first (a fixed order hands the second
    side systematically warmer caches); the overhead is the median of
    the per-pair ratios, which cancels slow drift that dominates the raw
    run-to-run spread.  Returns ``(base_s, test_s, overhead_frac)``
    with per-side median times.  (Same method as
    ``benchmarks/bench_obs_overhead.py``; kept here so the suite does
    not depend on files outside its own directory.)
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


class _Ladder:
    """Collects rung metrics; every time is in reference ns (each rung
    is one :class:`~refclock.RefClock` chunk)."""

    def __init__(self, sizes):
        self.sizes = sizes
        self.out = {}
        self.clock = RefClock()

    def rung(self, name, unit, base, test, n, inner=3, delta=True):
        """Time ``test`` against ``base``; both process ``n`` items per
        call.  Records ``<name>.<unit>`` and, with ``delta``,
        ``<name>.delta_ns``."""
        self.clock.start()
        base_s, test_s, ratio = paired(base, test, self.sizes.repeats, inner)
        wall, ref = self.clock.stop()
        factor = ref / wall
        self.out[f"{name}.{unit}"] = test_s / n * 1e9 * factor
        if delta:
            self.out[f"{name}.delta_ns"] = ratio * base_s / n * 1e9 * factor

    def timed(self, fn, repeats, inner=3):
        """Median reference seconds of ``fn`` over ``repeats`` timings."""
        self.clock.start()
        times = [_timed(fn, inner) for _ in range(repeats)]
        wall, ref = self.clock.stop()
        return statistics.median(times) * ref / wall


def _loop(items):
    def run():
        for _ in items:
            pass
    return run


def _calls(fn, items):
    def run():
        for item in items:
            fn(item)
    return run


def _strided_pair(seed):
    """Two interleaved strided walks (``a[i]`` and ``b[i]`` of one loop
    body), stride drawn from the seed among Figure 5's even strides."""
    rng = np.random.default_rng([seed, 7])
    stride = int(rng.choice([1, 3, 5, 7])) << int(rng.integers(4, 11))
    walk = np.arange(2 * L2_SETS, dtype=np.uint64) * np.uint64(stride)
    stream = np.empty(2 * len(walk), dtype=np.uint64)
    stream[0::2] = walk
    stream[1::2] = walk + np.uint64(1 << 40)
    return stream


def _hashing(lad, keys, vector, seed):
    strided = _strided_pair(seed)
    for scheme in SCHEMES:
        ix = STORE_SCHEMES[scheme](L2_SETS)
        lad.rung(f"hashing.index.{scheme}", "ns_per_key", _loop(keys),
                 _calls(ix.index, keys), len(keys), delta=False)
        seconds = lad.timed(lambda: ix.index_array(vector),
                            lad.sizes.repeats)
        lad.out[f"hashing.index_array.{scheme}.ns_per_key"] = \
            seconds / len(vector) * 1e9
        lad.out[f"hashing.{scheme}.balance"] = balance(ix, strided)
        lad.out[f"hashing.{scheme}.concentration"] = concentration(ix,
                                                                   strided)
    a, b = derive_constants(DEFAULT_KEY)
    products = [a * key + b for key in keys]
    lad.rung("hashing.mersenne_fold", "ns_per_key", _loop(products),
             _calls(mersenne_fold, products), len(products), delta=False)


def _store(lad, keys, ops):
    n = len(keys)
    selector = make_selector("pmod", 64)
    lad.rung("store.selector.shard", "ns_per_op",
             _calls(selector.indexing.index, keys),
             _calls(selector.shard, keys), n)

    shard = Shard(256, assoc=8)
    for key in keys:
        shard.put(key, key)
    lad.rung("store.shard.get", "ns_per_op", _loop(keys),
             _calls(shard.get, keys), n)

    def shard_puts():
        put = shard.put
        for key in keys:
            put(key, key)

    lad.rung("store.shard.put", "ns_per_op", _loop(keys), shard_puts, n)

    store = workloads.make_store()
    for key in keys:
        store.put(key, key)
    shards, route = store.shards, selector.shard

    def routed_gets():
        for key in keys:
            shards[route(key)].get(key)

    def routed_puts():
        for key in keys:
            shards[route(key)].put(key, key)

    def store_puts():
        put = store.put
        for key in keys:
            put(key, key)

    lad.rung("store.engine.get", "ns_per_op", routed_gets,
             _calls(store.get, keys), n)
    lad.rung("store.engine.put", "ns_per_op", routed_puts, store_puts, n)

    requests = [Request(OP_NAMES[op], key, value=key)
                for key, op in zip(keys, ops)]

    def direct():
        for request in requests:
            if request.op == "get":
                store.get(request.key)
            elif request.op == "put":
                store.put(request.key, request.value)
            else:
                store.delete(request.key)

    lad.rung("store.driver.replay", "ns_per_op", direct,
             lambda: replay(store, requests), n)


def _serve(lad, keys, ops):
    n = len(keys)
    n_queues = workloads.make_serve_store().n_shards

    def futures_only():
        async def main():
            loop = asyncio.get_running_loop()
            futures = []
            for _ in keys:
                future = loop.create_future()
                loop.call_soon(future.set_result, None)
                futures.append(future)
            await asyncio.gather(*futures)
        asyncio.run(main())

    def batcher_noop():
        async def execute(_qid, items):
            for item in items:
                if not item.future.done():
                    item.future.set_result(None)

        async def main():
            batcher = Batcher(n_queues, execute, BatchConfig(
                max_batch_size=workloads.SERVE_BATCH, max_wait_s=0.001))
            await batcher.start()
            futures = []
            for key in keys:
                item = WorkItem.make(key)
                batcher.submit(key % n_queues, item)
                futures.append(item.future)
            await asyncio.gather(*futures)
            await batcher.stop()
        asyncio.run(main())

    lad.rung("serve.batcher", "ns_per_item", futures_only, batcher_noop, n)

    store = workloads.make_serve_store()

    def batcher_and_store():
        batcher_noop()
        for key, op in zip(keys, ops):
            if op == workloads.PUT:
                store.put(key, key)
            else:
                store.get(key)

    def frontend():
        async def main():
            front = workloads.make_frontend(workloads.make_serve_store())
            async with front:
                await workloads._closed_loop(front, keys, ops, {}, 0,
                                             clients=32)
        asyncio.run(main())

    lad.rung("serve.frontend", "ns_per_req", batcher_and_store, frontend, n,
             inner=1)


def _cluster(lad, keys):
    n = len(keys)
    cluster = workloads.make_cluster()
    for key in keys:
        cluster.put(key, key)
    router, nodes = cluster.router, cluster.nodes

    def replicas():
        walk = router.replicas
        for key in keys:
            walk(key, 2)

    lad.rung("cluster.router.replicas", "ns_per_op",
             _calls(router.node_table.shard, keys), replicas, n)

    def replica_puts():
        for key in keys:
            for node in router.replicas(key, 2):
                nodes[node].store.put(key, (0, key))

    def replica_gets():
        for key in keys:
            for node in router.replicas(key, 2):
                nodes[node].store.get(key)

    def cluster_puts():
        put = cluster.put
        for key in keys:
            put(key, key)

    lad.rung("cluster.engine.put", "ns_per_op", replica_puts, cluster_puts,
             n, inner=1)
    lad.rung("cluster.engine.get", "ns_per_op", replica_gets,
             _calls(cluster.get, keys), n, inner=1)


def _paper_path(lad, seed):
    sizes = lad.sizes
    machine = MachineConfig.paper_default()
    trace = get_workload(sizes.cell_app).trace(scale=sizes.cell_scale,
                                               seed=seed)
    n = min(sizes.simulated, len(trace))
    addresses = trace.addresses[:n].tolist()
    writes = trace.is_write[:n].tolist()
    l1_shift = machine.l1_block_bytes.bit_length() - 1
    l2_shift = machine.l2_block_bytes.bit_length() - 1
    blocks = [a >> l2_shift for a in addresses]

    l2 = build_l2("pmod", machine)
    lad.rung("cache.setassoc.access", "ns_per_access",
             _calls(l2.indexing.index, blocks), _calls(l2.access, blocks), n)

    l1 = SetAssociativeCache(machine.l1_sets, machine.l1_assoc,
                             TraditionalIndexing(machine.l1_sets))
    hierarchy = build_hierarchy("pmod", machine)

    def l1_only():
        access = l1.access
        for address, write in zip(addresses, writes):
            access(address >> l1_shift, write)

    def through_hierarchy(target):
        def run():
            access = target.access
            for address, write in zip(addresses, writes):
                access(address, write)
        return run

    lad.rung("cache.hierarchy.access", "ns_per_access", l1_only,
             through_hierarchy(hierarchy), n)

    simulator = workloads._build_cell("pmod", machine)
    head = Trace(trace.name, trace.addresses[:n], trace.is_write[:n],
                 trace.meta)
    lad.rung("cpu.simulator", "ns_per_access",
             through_hierarchy(build_hierarchy("pmod", machine)),
             lambda: simulator.run(head), n, inner=1)

    m = min(sizes.fastsim, len(trace))
    stream = trace.block_addresses(machine.l2_block_bytes)[:m]
    stream_list = stream.tolist()
    l2_loop = build_l2("pmod", machine)
    pmod = PrimeModuloIndexing(machine.l2_sets)
    lad.rung("cache.fastsim", "ns_per_access",
             _calls(l2_loop.access, stream_list),
             lambda: simulate_misses(pmod, stream, machine.l2_assoc), m,
             inner=1)

    def cell():
        engine = SimulationEngine(RunConfig(scale=sizes.cell_scale,
                                            seed=seed), jobs=1)
        engine.result(sizes.cell_app, "pmod")

    lad.out["engine.fig7_cell_s"] = lad.timed(cell, sizes.cell_repeats,
                                              inner=1)


def run(seed, sizes=LADDER):
    """Every rung; returns ``{metric name: value}``."""
    lad = _Ladder(sizes)
    keys, ops = (a.tolist() for a in workloads.key_stream(
        seed, 5, sizes.keys, workloads.STORE.n_keys, workloads.STORE.alpha,
        workloads.STORE.put_frac, workloads.STORE.delete_frac))
    rng = np.random.default_rng([seed, 6])
    vector = rng.integers(0, 1 << 40, size=sizes.vector, dtype=np.uint64)
    _hashing(lad, keys, vector, seed)
    _store(lad, keys, ops)
    serve_keys, serve_ops = (a.tolist() for a in workloads.key_stream(
        seed, 8, sizes.slow, workloads.SERVE.n_keys, workloads.SERVE.alpha,
        workloads.SERVE.put_frac))
    _serve(lad, serve_keys, serve_ops)
    _cluster(lad, keys[:sizes.slow])
    _paper_path(lad, seed)
    return lad.out
