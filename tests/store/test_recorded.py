"""Recorded outputs of seeded sharded-store runs.

A :class:`ShardedStore` routes each key once per op and finds its way
inside one set of one shard; however those two steps are written, the
store must answer the same.  Each run below drives a small store (so
sets fill and evict) under one replacement policy through a seeded op
stream of int, negative, wider-than-64-bit, str and bytes keys, while
two shards are quarantined and healed and the fleet is resharded one
prime rung up with bounded migration steps in between.  The per-op
results, every shard's ``stats.snapshot()`` and every shard's
``items()`` are compared, as SHA-256 prefixes of their JSON, with
values recorded from the straightforward implementation.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.store import ShardedStore

N_KEYS = 1024
POLICIES = ("fifo", "lru", "nru", "plru", "random")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=list)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def op_stream(seed, n_ops):
    """Seeded zipf-skewed keys of every accepted type, and op kinds
    (0 get, 1 put, 2 delete)."""
    rng = np.random.default_rng(seed)
    ranks = (rng.zipf(1.1, n_ops) % N_KEYS).tolist()
    kinds = rng.choice(3, size=n_ops, p=[0.5, 0.42, 0.08]).tolist()
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


def apply(store, keys, kinds, lo, hi, results):
    for i in range(lo, hi):
        key, kind = keys[i], kinds[i]
        if kind == 0:
            results.append(store.get(key))
        elif kind == 1:
            results.append(store.put(key, i))
        else:
            results.append(store.delete(key))


def drive(policy, seed=0):
    """One run: 2000 ops, quarantine shards 2 and 5 for 1000, heal 2
    for 500, heal the rest, reshard 13 -> 17 shards with a 25-key
    migration step every 50 ops until the old fleet is empty, commit,
    then 1000 more ops.  Returns the outputs to compare."""
    store = ShardedStore(n_shards=16, scheme="pmod", shard_capacity=32,
                         assoc=4, replacement=policy)
    keys, kinds = op_stream(seed, 6000)
    results = []
    apply(store, keys, kinds, 0, 2000, results)
    results.append(store.quarantine([2, 5]).epoch_id)
    apply(store, keys, kinds, 2000, 3000, results)
    results.append(store.heal([2]).epoch_id)
    apply(store, keys, kinds, 3000, 3500, results)
    results.append(store.heal().epoch_id)
    old_shards = store.shards
    results.append(store.begin_reshard(store.routing.grown()).n_shards)
    at = 3500
    while store.migration_backlog():
        apply(store, keys, kinds, at, at + 50, results)
        at += 50
        results.append(store.migrate_keys(25))
    results.append(store.commit_reshard())
    apply(store, keys, kinds, at, at + 1000, results)
    return {
        "results": digest(results),
        "stats": digest([s.stats.snapshot()
                         for s in old_shards + store.shards]),
        "items": digest([s.items() for s in store.shards]),
    }


RECORDED = {
    "fifo": {
        "results": "bbc02c148cbe6424",
        "stats": "2fb2ab2bb7e0469a",
        "items": "255dd8de3a53800b",
    },
    "lru": {
        "results": "a5c51b4c92de7584",
        "stats": "f938e8845c122279",
        "items": "e9e8122c8bf3af98",
    },
    "nru": {
        "results": "acb3cdde0d6cdf14",
        "stats": "47b9d55edc0f48dc",
        "items": "bc76e7da1150f917",
    },
    "plru": {
        "results": "801a5f51eb1c7589",
        "stats": "5c07d9d63d8d0ed3",
        "items": "4c1390f5107d9a41",
    },
    "random": {
        "results": "af9d15340cb8a0ed",
        "stats": "907cb6cf7984ae7c",
        "items": "b09151c03f8ba2ae",
    },
}


def record():
    """Every policy's outputs (how :data:`RECORDED` was filled in)."""
    return {policy: drive(policy) for policy in POLICIES}


@pytest.mark.parametrize("policy", POLICIES)
def test_recorded_run(policy):
    assert drive(policy) == RECORDED[policy]
