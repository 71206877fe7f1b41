"""Fast store smoke test: every scheme serves 10k mixed requests.

The tier-1 guard for the serving path: small shard count, real traffic,
every routing scheme, serial and concurrent replay — asserting the
invariants a production store must never break (capacity bounds,
conservation of accesses, the paper's balance ordering on structured
traffic).
"""

import math

import pytest

from repro.store import STORE_SCHEMES, ShardedStore, make_traffic, replay

N_REQUESTS = 10_000
N_SHARDS = 16
SHARD_CAPACITY = 128


@pytest.mark.parametrize("scheme", sorted(STORE_SCHEMES))
def test_smoke_every_scheme(scheme):
    store = ShardedStore(n_shards=N_SHARDS, scheme=scheme,
                         shard_capacity=SHARD_CAPACITY)
    requests = make_traffic("zipfian", N_REQUESTS, n_keys=2048, seed=0)
    report = replay(store, requests, workers=2)
    t = report.telemetry
    assert t.accesses == N_REQUESTS
    assert t.hits + t.misses == N_REQUESTS
    assert len(store) <= store.capacity
    assert not math.isnan(t.balance)
    assert t.concentration >= 0.0
    assert report.throughput_rps > 0


def test_smoke_prime_schemes_beat_traditional_on_structured_traffic():
    balances = {}
    for scheme in ("traditional", "pmod", "pdisp"):
        store = ShardedStore(n_shards=N_SHARDS, scheme=scheme,
                             shard_capacity=SHARD_CAPACITY)
        replay(store, make_traffic("strided", N_REQUESTS, stride=N_SHARDS,
                                   seed=0))
        balances[scheme] = store.balance()
    assert balances["pmod"] < balances["traditional"]
    assert balances["pdisp"] < balances["traditional"]
