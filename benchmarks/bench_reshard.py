"""Online resharding under live traffic: the epoch-machinery benchmark.

Grows every shard-selection scheme one rung up its ladder (pMod prime
to prime, 61 -> 67; the power-of-two schemes 64 -> 128) while serving
hot-key Zipfian traffic, asserts the reshard contract (zero key loss,
bounded in-flight moves, Figure 5 ordering preserved on the post-
reshard table), and measures the two headline rates: request
throughput *during* a live migration and raw migration drain speed.

Emits ``BENCH_reshard.json`` at the repo root — the machine-readable
record future PRs regress their routing/migration changes against.
"""

import json
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

from repro.store import Migrator, ShardedStore
from repro.experiments.reshard import (
    DEFAULT_SCHEMES,
    measure,
    start_shards,
)

N_REQUESTS = 20000
N_KEYS = 4096
SHARD_CAPACITY = 512
ASSOC = 16

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_reshard.json"


def _migration_rate(scheme):
    """Keys/second for a pure (traffic-free) one-rung migration drain."""
    store = ShardedStore(start_shards(scheme), scheme,
                         shard_capacity=SHARD_CAPACITY, assoc=ASSOC)
    for key in range(N_KEYS):
        store.put(key, key)
    store.begin_reshard(store.routing.grown())
    started = perf_counter()
    report = Migrator(store).run()
    elapsed = perf_counter() - started
    assert report.left_behind == 0
    return report.moved / elapsed if elapsed > 0 else 0.0


def test_reshard_live(benchmark):
    cells = {
        scheme: measure(scheme, N_REQUESTS, shard_capacity=SHARD_CAPACITY,
                        assoc=ASSOC, seed=0)
        for scheme in DEFAULT_SCHEMES
    }

    print()
    for scheme, cell in cells.items():
        migration = cell["migration"]
        print(f"  {scheme:<12} {cell['from_n_shards']:>3}->"
              f"{cell['to_n_shards']:<3} moved {migration['moved']:>5} "
              f"peak {migration['peak_in_flight']}/{migration['budget']} "
              f"during {cell['during_rps']:>9.0f} rps "
              f"balance {cell['strided_balance_after']:.3f}")

    # Measured migration drain rate for the headline (pMod) ladder hop.
    migrate_keys_per_s = benchmark(lambda: _migration_rate("pmod"))

    payload = {
        "bench": "reshard",
        "generated_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "n_requests": N_REQUESTS,
        "n_keys": N_KEYS,
        "shard_capacity": SHARD_CAPACITY,
        "assoc": ASSOC,
        "migrate_keys_per_s": migrate_keys_per_s,
        "schemes": {
            scheme: {
                "from_n_shards": cell["from_n_shards"],
                "to_n_shards": cell["to_n_shards"],
                "epoch": cell["epoch"],
                "moved": cell["migration"]["moved"],
                "peak_in_flight": cell["migration"]["peak_in_flight"],
                "budget": cell["migration"]["budget"],
                "left_behind": cell["migration"]["left_behind"],
                "during_rps": cell["during_rps"],
                "strided_balance_after": cell["strided_balance_after"],
            }
            for scheme, cell in cells.items()
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {BENCH_PATH}")

    # The reshard contract, asserted on served traffic.
    for scheme, cell in cells.items():
        assert cell["zero_loss"]["missing"] == 0, scheme
        assert cell["zero_loss"]["mismatched"] == 0, scheme
        assert (cell["migration"]["peak_in_flight"]
                <= cell["migration"]["budget"]), scheme
        assert cell["migration"]["left_behind"] == 0, scheme
    base = cells["traditional"]["strided_balance_after"]
    for scheme in ("pmod", "pdisp"):
        assert cells[scheme]["strided_balance_after"] < base
