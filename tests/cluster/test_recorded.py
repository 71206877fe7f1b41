"""Recorded outputs of seeded cluster runs.

The replicated op path — routing, replica fan-out, fabric pricing, the
store hop under each replica and the re-replication drain — must answer
the same however it is written.  Each run below drives a cluster through
one seeded op stream (int, negative, wider-than-64-bit, str and bytes
keys) with a node degraded and restored and another killed and
recovered mid-stream, and every output is compared exactly with values
recorded from the straightforward implementation:

* small outputs literally: ``counts``, ``sim_latency_percentiles()``,
  ``node_access_counts()`` and the :class:`ReReplicationReport`;
* large ones as a SHA-256 prefix of their JSON: the per-op results,
  ``fabric.stats(virtual_now_s)``, ``telemetry().as_dict()`` and the
  journal's ``(kind, fields)`` sequence.

The two starved runs queue two messages per link at 4 MB/s with one op
per microsecond, so nearly every message is tail-dropped.  The queued
run offers one op per 5 us to 100 MB/s links four messages deep: about
a third of the messages drop, the rest queue, and quorum misses,
read-repairs and response legs that reach a link earlier in virtual
time than the one before all occur.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    NodeFaultInjector,
    ReReplicator,
    ReplicationConfig,
    fat_tree_fabric,
    star_fabric,
)
from repro.obs import Journal, MetricsRegistry, set_journal

N_KEYS = 2048
N_OPS = 12_000
DEGRADED, VICTIM = 3, 5
#: op index -> lifecycle action, applied before that op.
SCHEDULE = {3_000: "degrade", 4_500: "restore", 6_000: "fail",
            9_000: "recover"}
#: The pMod node table over 8 physical nodes uses 7.
USABLE_NODES = 7


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=list)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def op_stream(seed):
    """Seeded zipf-skewed keys of every accepted type, and op kinds
    (0 get, 1 put, 2 delete)."""
    rng = np.random.default_rng(seed)
    ranks = (rng.zipf(1.2, N_OPS) % N_KEYS).tolist()
    kinds = rng.choice(3, size=N_OPS, p=[0.65, 0.3, 0.05]).tolist()
    keys = []
    for rank in ranks:
        if rank % 7 == 3:
            keys.append(f"user:{rank}")
        elif rank % 11 == 5:
            keys.append(b"blob" + rank.to_bytes(2, "little"))
        elif rank % 13 == 2:
            keys.append(-rank - 1)
        elif rank % 17 == 4:
            keys.append((1 << 64) + rank)
        else:
            keys.append(rank)
    return keys, kinds


def drive(cluster, seed):
    """Run the stream and schedule; returns (results, recovery report)."""
    keys, kinds = op_stream(seed)
    results, report = [], None
    for i, (key, kind) in enumerate(zip(keys, kinds)):
        action = SCHEDULE.get(i)
        if action == "degrade":
            cluster.degrade_node(DEGRADED)
        elif action == "restore":
            cluster.restore_node(DEGRADED)
        elif action == "fail":
            cluster.fail_node(VICTIM)
        elif action == "recover":
            report = cluster.recover_node(VICTIM)
        if kind == 0:
            results.append(cluster.get(key))
        elif kind == 1:
            results.append(cluster.put(key, i))
        else:
            results.append(cluster.delete(key))
    return results, report


def outputs(cluster, results, report, journal):
    return {
        "results": digest(results),
        "counts": dict(cluster.counts),
        "sim_latency": cluster.sim_latency_percentiles(),
        "fabric": digest(cluster.fabric.stats(cluster.virtual_now_s)),
        "node_accesses": cluster.node_access_counts().tolist(),
        "report": report.as_dict(),
        "telemetry": digest(cluster.telemetry().as_dict()),
        "journal": digest([[e.kind, e.fields] for e in journal.tail()]),
    }


def ring_cluster():
    """The benchmark suite's cluster-r2 shape: 8 pMod nodes (7 usable)
    x 16 pMod shards, R=2, nothing evicted."""
    return Cluster(n_nodes=8, node_scheme="pmod", shard_scheme="pmod",
                   shards_per_node=16, shard_capacity=2048,
                   replication=ReplicationConfig(replicas=2))


def congested_cluster(fabric, tick_s=1e-6):
    """R=3 with majority quorums on a congested fabric, observed, with
    seeded transient replica errors."""
    return Cluster(n_nodes=8, node_scheme="pmod", shard_scheme="pmod",
                   shards_per_node=16, shard_capacity=2048,
                   replication=ReplicationConfig(replicas=3, write_quorum=2,
                                                 read_quorum=2),
                   fabric=fabric, tick_s=tick_s,
                   injector=NodeFaultInjector(error_probability=0.01,
                                              seed=7),
                   registry=MetricsRegistry(enabled=True))


BUILDERS = {
    "ring": ring_cluster,
    "star": lambda: congested_cluster(star_fabric(
        USABLE_NODES, bandwidth_bps=4e6, queue_depth=2)),
    "fat-tree": lambda: congested_cluster(fat_tree_fabric(
        USABLE_NODES, bandwidth_bps=4e6, queue_depth=2)),
    "star-queued": lambda: congested_cluster(star_fabric(
        USABLE_NODES, bandwidth_bps=1e8, queue_depth=4), tick_s=5e-6),
}

RECORDED = {
    "ring": {
        "results": "088d8a712b3ba630",
        "counts": {"ops": 12000, "puts": 3584, "gets": 7747, "deletes": 669,
                   "quorum_misses": 0, "failed_reads": 0, "read_repairs": 0,
                   "replica_errors": 0, "rereplicated_keys": 225,
                   "node_failures": 1},
        "sim_latency": {"p50": 8.607288360601428e-05,
                        "p99": 0.00028660932540891526},
        "fabric": "41427ff9bc74dfa1",
        "node_accesses": [3695, 4865, 5278, 2095, 2044, 2082, 3243],
        "report": {"node": 5, "copied": 225, "skipped": 0, "scanned": 1271,
                   "chunks": 2, "budget": 128, "bytes_moved": 115200},
        "telemetry": "4410a084d3d9806d",
        "journal": "4ab7730f7de2bfa0",
    },
    "star": {
        "results": "4eff5731492b035f",
        "counts": {"ops": 12000, "puts": 3584, "gets": 7747, "deletes": 669,
                   "quorum_misses": 11330, "failed_reads": 7675,
                   "read_repairs": 0, "replica_errors": 35115,
                   "rereplicated_keys": 8, "node_failures": 1},
        "sim_latency": {"p50": 0.002, "p99": 0.002},
        "fabric": "bac2b8ac413fcc04",
        "node_accesses": [14, 34, 27, 3, 22, 5, 16],
        "report": {"node": 5, "copied": 8, "skipped": 0, "scanned": 26,
                   "chunks": 1, "budget": 128, "bytes_moved": 4096},
        "telemetry": "77c987132932067e",
        "journal": "6f8df90404d10026",
    },
    "fat-tree": {
        "results": "fd9baf35da94e7a8",
        "counts": {"ops": 12000, "puts": 3584, "gets": 7747, "deletes": 669,
                   "quorum_misses": 11330, "failed_reads": 7673,
                   "read_repairs": 0, "replica_errors": 35129,
                   "rereplicated_keys": 4, "node_failures": 1},
        "sim_latency": {"p50": 0.002, "p99": 0.002},
        "fabric": "df8e373b4dcf812d",
        "node_accesses": [10, 29, 24, 1, 18, 4, 21],
        "report": {"node": 5, "copied": 4, "skipped": 0, "scanned": 15,
                   "chunks": 1, "budget": 128, "bytes_moved": 2048},
        "telemetry": "e8f1518af84b902d",
        "journal": "ce56bfdbf3e18cdb",
    },
    "star-queued": {
        "results": "73cc92727ff85123",
        "counts": {"ops": 12000, "puts": 3584, "gets": 7747, "deletes": 669,
                   "quorum_misses": 8124, "failed_reads": 1413,
                   "read_repairs": 609, "replica_errors": 20341,
                   "rereplicated_keys": 225, "node_failures": 1},
        "sim_latency": {"p50": 0.00010875999999999594, "p99": 0.002},
        "fabric": "5be50c139ceb0e27",
        "node_accesses": [1856, 3494, 2698, 1577, 1848, 882, 2540],
        "report": {"node": 5, "copied": 225, "skipped": 0, "scanned": 1459,
                   "chunks": 2, "budget": 128, "bytes_moved": 115200},
        "telemetry": "b8990c732e185fd6",
        "journal": "623645c46ba4babf",
    },
}


def record():
    """Every run's outputs (how :data:`RECORDED` was filled in)."""
    values = {}
    for name, build in BUILDERS.items():
        journal = Journal(tail_events=1 << 20)
        previous = set_journal(journal)
        try:
            cluster = build()
            results, report = drive(cluster, seed=0)
            values[name] = outputs(cluster, results, report, journal)
        finally:
            set_journal(previous)
    return values


@pytest.fixture
def journal():
    journal = Journal(tail_events=1 << 20)
    previous = set_journal(journal)
    yield journal
    set_journal(previous)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_recorded_run(name, journal):
    cluster = BUILDERS[name]()
    results, report = drive(cluster, seed=0)
    assert outputs(cluster, results, report, journal) == RECORDED[name]


#: ``cluster.rereplicate`` payloads of the drain below: (moved,
#: total_moved, remaining), every chunk of budget 97.
DRAIN_EVENTS = [(97, 97, 759), (97, 194, 662), (97, 291, 565),
                (97, 388, 468), (97, 485, 371), (97, 582, 274),
                (97, 679, 177), (97, 776, 80), (80, 856, 0)]


def test_rereplication_drain_events(journal):
    """A drain of 856 owed keys in chunks of 97: ``remaining`` before
    every step, each step's count, the journaled payloads and the
    report all match the recording."""
    cluster = ring_cluster()
    for key in range(3000):
        cluster.put(key, key)
    cluster.fail_node(VICTIM)
    for key in range(0, 3000, 3):
        cluster.put(key, -key)
    cluster.nodes[VICTIM].begin_recovery()
    drain = ReReplicator(cluster, VICTIM, budget=97)
    steps = []
    while True:
        remaining = drain.remaining
        moved = drain.step()
        steps.append((remaining, moved))
        if not moved:
            break
    assert steps == [(856 - total + moved, moved)
                     for moved, total, _ in DRAIN_EVENTS] + [(0, 0)]
    events = [e.fields for e in journal.tail()
              if e.kind == "cluster.rereplicate"]
    assert events == [{"node": VICTIM, "moved": moved,
                       "total_moved": total, "remaining": remaining,
                       "budget": 97}
                      for moved, total, remaining in DRAIN_EVENTS]
    assert drain.report().as_dict() == {
        "node": VICTIM, "copied": 856, "skipped": 0, "scanned": 5144,
        "chunks": 9, "budget": 97, "bytes_moved": 438272}
