"""Online resharding: the prime ladder under live traffic.

Extension experiment for the epoch-versioned routing layer: each
shard-selection scheme starts serving hot-key Zipfian traffic, then
grows one rung up its ladder **while serving** — pMod moves prime to
prime (61 → 67, via :func:`repro.mathutil.next_prime`), the
power-of-two schemes double (64 → 128).  Migration runs through
:class:`~repro.store.Migrator` in bounded chunks interleaved with the
request stream, so the store is dual-epoch for most of the replay.

The artifact's ``checks`` block asserts the reshard contract:

* **zero key loss** — every key an exact expected-model says should be
  resident is served with the right value after the commit (puts track
  their eviction returns, deletes retire model entries);
* **bounded in-flight moves** — no migration chunk ever exceeded the
  configured budget;
* **Figure 5 ordering preserved** — on a strided probe stream routed
  through the *live post-reshard* table, pMod and pDisp still beat
  traditional modulo on balance (Eq. 1), i.e. growing the fleet did
  not surrender the paper's prime-indexing advantage.

With ``--cache-dir`` set, each scheme's measurement is
content-addressed and reused across runs; ``--check`` exits nonzero
unless every contract check holds (the ``make reshard-check`` gate).
"""

from __future__ import annotations

import sys
from functools import partial
from time import perf_counter
from typing import Dict, List, Mapping

import numpy as np

from repro.engine import ExperimentContext, ExperimentSpec, register
from repro.hashing import balance_from_counts
from repro.store import (
    DEFAULT_MOVE_BUDGET,
    Migrator,
    RoutingTable,
    ShardedStore,
    make_traffic,
    request_keys,
)
from repro.store.selector import canonical_key

#: Schemes resharded, in the paper's figure order.
DEFAULT_SCHEMES = ("traditional", "xor", "pmod", "pdisp")

#: Starting shard count per scheme: pMod on the prime rung below 64,
#: everything else on 64 itself; ``RoutingTable.grown`` then climbs one
#: rung (61 -> 67 / 64 -> 128).
def start_shards(scheme: str) -> int:
    return 61 if scheme == "pmod" else 64


def _apply(store: ShardedStore, model: Dict[int, int], request) -> None:
    """Serve one request, mirroring its effect into the expected model.

    ``put`` returns the key it evicted (if any); retiring that entry
    from the model keeps the model *exact* even if a set overflows, so
    the zero-loss check never blames capacity for a routing bug.
    """
    key = canonical_key(request.key)
    if request.op == "put":
        evicted = store.put(request.key, request.value)
        model[key] = request.value
        if evicted is not None:
            model.pop(evicted, None)
    elif request.op == "delete":
        store.delete(request.key)
        model.pop(key, None)
    else:
        store.get(request.key)


def _strided_balance(table: RoutingTable, n_requests: int,
                     seed: int) -> float:
    """Balance (Eq. 1) of a strided probe stream through ``table``.

    Routing-level on purpose: the store's lifetime histogram mixes the
    Zipfian populate/migrate phases, which would drown the structured
    stream Figures 5/6 are about.
    """
    keys = request_keys(make_traffic("strided", n_requests, seed=seed))
    counts = np.bincount(table.shard_array(keys),
                         minlength=table.n_shards)
    return float(balance_from_counts(counts))


def measure(scheme: str, n_requests: int, shard_capacity: int = 512,
            assoc: int = 16, replacement: str = "lru",
            budget: int = DEFAULT_MOVE_BUDGET, chunk_requests: int = 256,
            seed: int = 0) -> Dict:
    """Reshard one scheme one rung up its ladder under live traffic."""
    from_n = start_shards(scheme)
    store = ShardedStore(shard_capacity=shard_capacity, assoc=assoc,
                         replacement=replacement,
                         routing=RoutingTable.create(scheme, from_n))
    requests = make_traffic("zipfian", n_requests, seed=seed)
    split = len(requests) // 2
    model: Dict[int, int] = {}

    balance_before = _strided_balance(store.routing, n_requests, seed)

    # Phase A — populate: first half of the stream on the old epoch.
    for request in requests[:split]:
        _apply(store, model, request)

    # Phase B — grow one ladder rung and serve the second half while
    # the migrator drains the old epoch in bounded chunks.
    store.begin_reshard(store.routing.grown())
    migrator = Migrator(store, budget=budget)
    live = requests[split:]
    started = perf_counter()
    for lo in range(0, len(live), chunk_requests):
        for request in live[lo:lo + chunk_requests]:
            _apply(store, model, request)
        migrator.step()
    elapsed = perf_counter() - started
    report = migrator.run()  # drain the tail, commit the epoch

    # Phase C — post-commit verification against the expected model.
    missing = mismatched = 0
    for key, value in model.items():
        served = store.get(key)
        if served is None and value is not None:
            missing += 1
        elif served != value:
            mismatched += 1

    return {
        "scheme": scheme,
        "from_n_shards": from_n,
        "to_n_shards": store.n_shards,
        "epoch": store.epoch,
        "migration": report.as_dict(),
        "during_requests": len(live),
        "during_rps": len(live) / elapsed if elapsed > 0 else 0.0,
        "zero_loss": {
            "model_size": len(model),
            "missing": missing,
            "mismatched": mismatched,
        },
        "strided_balance_before": balance_before,
        "strided_balance_after": _strided_balance(store.routing,
                                                  n_requests, seed),
        "telemetry": store.telemetry().as_dict(),
    }


def run(n_requests: int = 20000, shard_capacity: int = 512,
        assoc: int = 16, replacement: str = "lru",
        budget: int = DEFAULT_MOVE_BUDGET, chunk_requests: int = 256,
        seed: int = 0, schemes: List[str] = None) -> Dict[str, Dict]:
    """Full sweep: ``result[scheme] = reshard measurement payload``."""
    return {
        scheme: measure(scheme, n_requests, shard_capacity=shard_capacity,
                        assoc=assoc, replacement=replacement, budget=budget,
                        chunk_requests=chunk_requests, seed=seed)
        for scheme in (schemes or DEFAULT_SCHEMES)
    }


def reshard_checks(cells: Mapping[str, Mapping]) -> Dict[str, bool]:
    """The reshard contract, one boolean per claim."""
    checks: Dict[str, bool] = {}
    for scheme, cell in cells.items():
        loss = cell["zero_loss"]
        migration = cell["migration"]
        checks[f"{scheme}_zero_key_loss"] = (
            loss["missing"] == 0 and loss["mismatched"] == 0)
        checks[f"{scheme}_in_flight_under_budget"] = (
            migration["peak_in_flight"] <= migration["budget"])
        checks[f"{scheme}_no_keys_left_behind"] = (
            migration["left_behind"] == 0)
        checks[f"{scheme}_epoch_advanced"] = cell["epoch"] >= 1
    base = cells.get("traditional")
    if base is not None:
        for scheme in ("pmod", "pdisp"):
            if scheme in cells:
                checks[f"{scheme}_beats_traditional_after_reshard"] = (
                    cells[scheme]["strided_balance_after"]
                    < base["strided_balance_after"])
    return checks


def render(data: Mapping) -> str:
    """One row per scheme plus the contract verdict."""
    header = (f"{'scheme':<12} {'shards':>9} {'epoch':>5} {'moved':>6} "
              f"{'chunks':>6} {'peak/budget':>11} {'left':>4} "
              f"{'during rps':>10} {'balance after':>13}")
    lines = [
        f"Online reshard — one ladder rung up under live zipfian traffic "
        f"({data['n_requests']} requests, budget {data['budget']})",
        header,
        "-" * len(header),
    ]
    for scheme, cell in data["cells"].items():
        migration = cell["migration"]
        lines.append(
            f"{scheme:<12} "
            f"{cell['from_n_shards']:>4}->{cell['to_n_shards']:<4} "
            f"{cell['epoch']:>5} {migration['moved']:>6} "
            f"{migration['chunks']:>6} "
            f"{migration['peak_in_flight']:>5}/{migration['budget']:<5} "
            f"{migration['left_behind']:>4} "
            f"{cell['during_rps']:>10.0f} "
            f"{cell['strided_balance_after']:>13.3f}")
    checks = data.get("checks", {})
    if checks:
        verdict = "ok" if all(checks.values()) else "VIOLATED"
        lines.append("")
        lines.append(
            f"Reshard contract: {verdict} "
            f"({sum(checks.values())}/{len(checks)} checks hold — zero "
            f"loss, bounded moves, Figure 5 ordering preserved)")
    return "\n".join(lines)


def _build(ctx: ExperimentContext) -> Dict:
    n_requests = max(1, int(int(ctx.param("requests", 20000))
                            * ctx.config.scale))
    params = {
        "n_requests": n_requests,
        "shard_capacity": int(ctx.param("shard_capacity", 512)),
        "assoc": int(ctx.param("assoc", 16)),
        "replacement": str(ctx.param("replacement", "lru")),
        "budget": int(ctx.param("budget", DEFAULT_MOVE_BUDGET)),
        "chunk_requests": int(ctx.param("chunk_requests", 256)),
        "seed": ctx.config.seed,
    }
    cells = {
        scheme: ctx.cached("store-reshard", scheme, params,
                           partial(measure, scheme, **params))
        for scheme in ctx.param("schemes", DEFAULT_SCHEMES)
    }
    return {
        "n_requests": n_requests,
        "shard_capacity": params["shard_capacity"],
        "assoc": params["assoc"],
        "replacement": params["replacement"],
        "budget": params["budget"],
        "chunk_requests": params["chunk_requests"],
        "cells": cells,
        "checks": reshard_checks(cells),
    }


def _render_artifact(artifact: Mapping) -> str:
    return render(artifact["data"])


register(ExperimentSpec(
    name="reshard",
    title="Online reshard: prime-ladder resize under live traffic "
          "(extension)",
    build=_build,
    render=_render_artifact,
    uses_simulation=False,
))


if __name__ == "__main__":
    from repro.experiments.__main__ import main
    main(["reshard", *sys.argv[1:]])
