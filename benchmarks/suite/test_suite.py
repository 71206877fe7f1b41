"""Tests for the benchmark suite itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite -q``.  Every
workload and the layer ladder run end to end at tiny sizes by calling
the workload functions directly; tamper tests check that a wrong answer
from the program is counted and turns the exit code to 1.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import ladder
import refclock
import run
import workloads
from spans import SpanRecorder

from repro.cluster import Cluster, ReplicationConfig
from repro.engine import RunConfig, SimulationEngine
from repro.store import ShardedStore

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

TINY = {
    "serve-zipf": workloads.ServeSizes(
        stream=2000, hit_prefix=1000, warmup=200, clients=8, reps=2,
        trace_warmup=100, open4k_s=0.05, open10k_s=0.05),
    "store-churn": workloads.StoreSizes(stream=60_000, hit_prefix=30_000,
                                        reps=2),
    "cluster-r2": workloads.ClusterSizes(n_keys=1024, stream=8192,
                                         hit_prefix=4096, reps=2),
    "paper-fig7": workloads.Fig7Sizes(scale=0.02, apps=("bt", "mcf"),
                                      schemes=("base", "pmod")),
}
TINY_LADDER = ladder.LadderSizes(keys=64, vector=256, slow=16, simulated=64,
                                 fastsim=256, repeats=5, cell_repeats=1,
                                 cell_scale=0.02)
#: Long enough that every tiny stream runs out before its deadline.
SECONDS = 30.0


def _declared():
    end_to_end, per_layer = run.declared()
    return end_to_end, per_layer


def _measure(part, seconds=SECONDS):
    if part == "paper-fig7":
        seconds = 0.001  # exactly one grid pass
    return workloads.run_part(part, "measure", 0, seconds,
                              sizes=TINY[part])


# -- the declared benchmark ---------------------------------------------


def test_benchmark_json_has_the_declared_shape():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/suite"]
    assert doc["command"] == ["python3", "benchmarks/suite/run.py"]
    assert 1 <= doc["run_seconds"] <= 60
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert metric["better"] in ("higher", "lower")
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", metric["unit"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert 1 <= len(doc["per_layer"]) <= 128


# -- every workload end to end at tiny sizes -----------------------------


@pytest.mark.parametrize("part", workloads.WORKLOADS)
def test_workload_runs_clean_and_emits_the_declared_metrics(part):
    end_to_end, _ = _declared()
    payload = _measure(part)
    assert payload["failed"] == 0
    assert payload["attempted"] > 0
    assert set(payload["metrics"]) == set(end_to_end)
    for name, entry in payload["metrics"].items():
        assert NAME.match(name)
        # This process's peak RSS was set by earlier tests; the CLI test
        # checks peak_rss_mb in a fresh child.
        assert entry["value"] > 0 or name == "peak_rss_mb", name
        assert entry["n"] >= 1


def test_traced_passes_and_ladder_emit_the_declared_per_layer_metrics():
    _, per_layer = _declared()
    emitted, failed = {}, 0
    for part in workloads.WORKLOADS:
        payload = workloads.run_part(part, "trace", 0, SECONDS,
                                     sizes=TINY[part])
        failed += payload["failed"]
        emitted.update(payload["metrics"])
    emitted.update(workloads.run_part("ladder", "trace", 0, SECONDS,
                                      sizes=TINY_LADDER)["metrics"])
    assert failed == 0
    assert set(emitted) == set(per_layer)
    assert all(NAME.match(name) for name in emitted)


def test_fig7_traced_cells_equal_untraced_cells():
    recorder = SpanRecorder()
    metrics, attempted, failed = workloads.paper_fig7_traced(
        1, SECONDS, recorder, TINY["paper-fig7"])
    assert failed == 0 and attempted == 2 * 4
    assert 0.0 < metrics["cache.l2.miss_rate"] <= 1.0
    assert recorder.layers["cache.hierarchy"].count > 0


def test_cli_store_churn_prints_one_result_line_and_exits_zero():
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--workload", "store-churn",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    end_to_end, _ = _declared()
    assert set(line["metrics"]) == set(end_to_end)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == end_to_end[name]["unit"]
        assert entry["value"] > 0, name


def test_cli_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "benchmarks/suite/run.py"),
         "--workload", "store-churn", "--seed", "0", "--seconds", "1"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# -- outputs are checked -------------------------------------------------


class _Tampered:
    """Serves exactly one wrong get: the key's previous value (stale)
    or a deleted key's last value (resurrected)."""

    def arm(self, mode):
        self._mode, self._history, self._deleted = mode, {}, {}
        self.served = False
        return self

    def put(self, key, value):
        self._history.setdefault(key, []).append(value)
        self._deleted.pop(key, None)
        return super().put(key, value)

    def delete(self, key):
        if self._history.get(key):
            self._deleted[key] = self._history[key][-1]
        return super().delete(key)

    def get(self, key, default=None):
        value = super().get(key, default)
        if self.served:
            return value
        history = self._history.get(key, [])
        if (self._mode == "stale" and value is not None
                and len(history) >= 2 and history[-2] != value):
            self.served = True
            return history[-2]
        if self._mode == "resurrect" and value is None \
                and key in self._deleted:
            self.served = True
            return self._deleted[key]
        return value


class TamperedStore(_Tampered, ShardedStore):
    pass


class TamperedCluster(_Tampered, Cluster):
    pass


def _assert_refused(part, payload):
    assert payload["failed"] >= 1
    end_to_end, _ = _declared()
    assert run.report(f"tampered {part}", payload, end_to_end) == 1


@pytest.mark.parametrize("mode", ["stale", "resurrect"])
def test_store_churn_counts_a_wrong_get(monkeypatch, mode):
    stores = []

    def make():
        stores.append(TamperedStore(n_shards=64, scheme="pmod",
                                    shard_capacity=256).arm(mode))
        return stores[-1]

    monkeypatch.setattr(workloads, "make_store", make)
    payload = _measure("store-churn")
    assert any(store.served for store in stores)
    _assert_refused("store-churn", payload)


def test_serve_zipf_counts_a_stale_value(monkeypatch):
    stores = []

    def make():
        stores.append(TamperedStore(n_shards=32, scheme="pmod",
                                    shard_capacity=512).arm("stale"))
        return stores[-1]

    monkeypatch.setattr(workloads, "make_serve_store", make)
    payload = _measure("serve-zipf")
    assert any(store.served for store in stores)
    _assert_refused("serve-zipf", payload)


def test_cluster_r2_counts_a_stale_value(monkeypatch):
    clusters = []

    def make():
        clusters.append(TamperedCluster(
            n_nodes=8, node_scheme="pmod", shard_scheme="pmod",
            shards_per_node=16, shard_capacity=2048,
            replication=ReplicationConfig(replicas=2)).arm("stale"))
        return clusters[-1]

    monkeypatch.setattr(workloads, "make_cluster", make)
    payload = _measure("cluster-r2")
    assert any(cluster.served for cluster in clusters)
    _assert_refused("cluster-r2", payload)


def test_fig7_check_counts_one_altered_golden_field():
    sizes = TINY["paper-fig7"]
    grid = workloads.fig7_grid(0, sizes)
    golden = {f"{app}/{scheme}": asdict(result)
              for (app, scheme), result in grid.items()}
    accesses = {app: 10 ** 9 for app in sizes.apps}
    assert workloads.check_fig7(grid, golden, accesses) == 0
    golden["mcf/pmod"]["l2_misses"] += 1
    failed = workloads.check_fig7(grid, golden, accesses)
    assert failed == 1
    payload = _measure("paper-fig7")
    payload["failed"] += failed
    _assert_refused("paper-fig7", payload)


def test_committed_golden_grid_matches_the_simulator():
    for seed in (0, 1, 2):
        golden = workloads.load_golden(seed)
        assert golden is not None and len(golden) == 35
    engine = SimulationEngine(RunConfig(scale=workloads.FIG7.scale, seed=0),
                              jobs=1)
    result = engine.result("mcf", "pmod")
    assert asdict(result) == workloads.load_golden(0)["mcf/pmod"]


# -- pieces --------------------------------------------------------------


def test_key_stream_is_seeded():
    a = workloads.key_stream(5, 1, 1000, 4096, 1.1, 0.3, 0.1)
    b = workloads.key_stream(5, 1, 1000, 4096, 1.1, 0.3, 0.1)
    c = workloads.key_stream(6, 1, 1000, 4096, 1.1, 0.3, 0.1)
    assert (a[0] == b[0]).all() and (a[1] == b[1]).all()
    assert not (a[0] == c[0]).all()
    ops = a[1]
    assert 0.2 < (ops == workloads.PUT).mean() < 0.4
    assert 0.03 < (ops == workloads.DELETE).mean() < 0.2


class _Node:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n


def test_span_recorder_self_time_and_sampled_parents():
    node = _Node()
    recorder = SpanRecorder(sample_every=2)
    recorder.wrap(node, "inner", "inner")
    recorder.wrap(node, "outer", "outer")
    for i in range(4):
        assert node.outer(i) == i + 1
    outer, inner = recorder.layers["outer"], recorder.layers["inner"]
    assert outer.count == inner.count == 4 and recorder.roots == 4
    assert outer.self_ns == outer.total_ns - inner.total_ns
    assert recorder.root_ns == outer.total_ns
    kept = recorder.spans
    assert sorted({span["request_id"] for span in kept}) == [0, 2]
    by_id = {span["id"]: span for span in kept}
    for span in kept:
        if span["name"] == "inner":
            parent = by_id[span["parent"]]
            assert parent["name"] == "outer"
            assert parent["request_id"] == span["request_id"]
            assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"]


def test_ref_clock_scales_busy_time_only(monkeypatch):
    monkeypatch.setattr(refclock, "probe", lambda: 2.0)
    clock = refclock.RefClock()
    clock.start()
    time.sleep(0.05)
    idle_wall, idle_ref = clock.stop()
    assert idle_ref == pytest.approx(idle_wall, rel=0.2)
    clock.start()
    refclock.reference_loop(200_000)
    busy_wall, busy_ref = clock.stop()
    assert busy_ref == pytest.approx(2.0 * busy_wall, rel=0.2)
    assert clock.wall_s == idle_wall + busy_wall
    assert clock.ref_s == idle_ref + busy_ref


def test_latency_percentiles_are_read_across_chunks():
    latencies = workloads.Latencies()
    quiet = np.ones(1000)
    stalled = np.r_[np.ones(900), np.full(100, 50.0)]
    for ms, factor in ((quiet, 1.0), (stalled, 1.0), (quiet, 0.5),
                       (quiet, 1.0), (np.ones(10), 9.0)):
        latencies.add(ms, factor)
    metrics = latencies.metrics()
    # Chunks of >= 1000 ops read p50 1, 1, 0.5, 1; the 10-op chunk is out.
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(1.0)
    # The first quartile of the chunk p99s 1, 50, 0.5 and 1.
    assert metrics["latency_p99_ms"]["value"] == pytest.approx(0.625)
    assert metrics["latency_p99_ms"]["n"] == 4010


def test_timed_chunks_alternate_and_stay_out_of_the_throughput():
    keys, ops = workloads.key_stream(0, 3, 1000, 4096, 0.9, 0.4, 0.05)
    latencies = workloads.Latencies()
    check = workloads.OpCheck(evicting=True)
    run = workloads._run_ops(workloads.make_store(), keys, ops,
                             refclock.RefClock(), check, 100, latencies)
    assert run["done"] == 1000 and run["tput_ops"] == 500
    assert [chunk[0] for chunk in latencies.chunks] == [100] * 5
    assert 0 < run["tput_ref_s"] < run["ref_s"]
    assert check.failed == 0 and check.gets > 0


def test_cluster_outage_fires_after_a_run_that_ends_before_it():
    # A budget this small ends the untraced run after its first two
    # chunks: the node is killed between them and recovered only after
    # the last, and the traced rerun must replay exactly that.
    metrics, attempted, failed = workloads.cluster_r2_traced(
        0, 1e-9, SpanRecorder(), TINY["cluster-r2"])
    assert failed == 0
    assert attempted == 2 * (2 * workloads.CLUSTER_CHUNK
                             + TINY["cluster-r2"].n_keys)
    assert 0 <= metrics["cluster.rereplicate.keys_per_s"] < float("inf")


def test_paired_rejects_too_few_repeats():
    with pytest.raises(ValueError):
        ladder.paired(lambda: None, lambda: None, repeats=3)
