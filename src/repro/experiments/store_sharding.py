"""Store sharding: the paper's indexing schemes serving real traffic.

Extension experiment: route hot-key Zipfian, strided-batch and
power-of-two-aligned request streams through a
:class:`~repro.store.ShardedStore` under each shard-selection scheme
(traditional modulo, XOR, pMod with a prime shard count, pDisp with the
paper's p = 9), and measure what Figures 5/6 measure for L2 sets — on
served requests instead of simulated addresses:

* balance (Eq. 1) of the observed per-shard access histogram,
* concentration (Eq. 2) of the shard-access stream,
* plus the serving-side symptoms: hit rate (conflict evictions), tail
  per-shard load, and replay throughput.

Expected shape (the paper's Figure 5 ordering, transplanted): pMod and
pDisp strictly beat traditional modulo on the strided and pow2-aligned
streams, where power-of-two routing collapses onto a handful of shards.

With ``--cache-dir`` set, each (pattern, scheme) measurement is
content-addressed through :meth:`~repro.engine.ExperimentContext.cached`
and reused across runs; ``--check`` gates the four ordering checks.
"""

from __future__ import annotations

import sys
from functools import partial
from typing import Dict, List, Mapping

from repro.engine import ExperimentContext, ExperimentSpec, register
from repro.reporting import shard_balance_chart, shard_balance_table
from repro.store import ShardedStore, make_traffic, replay

#: Schemes compared, in the paper's figure order.
DEFAULT_SCHEMES = ("traditional", "xor", "pmod", "pdisp")

#: Traffic patterns replayed against every scheme.
DEFAULT_PATTERNS = ("zipfian", "strided", "pow2")

#: Patterns on which the paper's ordering (pMod/pDisp < traditional)
#: is asserted by the artifact's ``checks`` block.
ORDERED_PATTERNS = ("strided", "pow2")


def measure(pattern: str, scheme: str, n_requests: int, n_shards: int = 64,
            shard_capacity: int = 512, assoc: int = 8,
            replacement: str = "lru", workers: int = 1,
            seed: int = 0) -> Dict:
    """Replay one (pattern, scheme) cell; returns the report payload."""
    store = ShardedStore(n_shards=n_shards, scheme=scheme,
                         shard_capacity=shard_capacity, assoc=assoc,
                         replacement=replacement)
    requests = make_traffic(pattern, n_requests, seed=seed)
    return replay(store, requests, workers=workers).as_dict()


def run(n_requests: int = 20000, n_shards: int = 64,
        shard_capacity: int = 512, assoc: int = 8, replacement: str = "lru",
        workers: int = 1, seed: int = 0,
        schemes: List[str] = None,
        patterns: List[str] = None) -> Dict[str, Dict[str, Dict]]:
    """Full grid: ``result[pattern][scheme] = replay report payload``."""
    schemes = list(schemes or DEFAULT_SCHEMES)
    patterns = list(patterns or DEFAULT_PATTERNS)
    return {
        pattern: {
            scheme: measure(pattern, scheme, n_requests, n_shards=n_shards,
                            shard_capacity=shard_capacity, assoc=assoc,
                            replacement=replacement, workers=workers,
                            seed=seed)
            for scheme in schemes
        }
        for pattern in patterns
    }


def ordering_checks(grid: Mapping[str, Mapping[str, Mapping]]) -> Dict[str, bool]:
    """Figure 5 ordering on served traffic: prime schemes < traditional.

    One boolean per (pattern, prime scheme) pair on the structured
    patterns; True means strictly better (lower) balance than the
    traditional power-of-two modulo selector.
    """
    checks: Dict[str, bool] = {}
    for pattern in ORDERED_PATTERNS:
        cells = grid.get(pattern, {})
        base = cells.get("traditional")
        if base is None:
            continue
        for scheme in ("pmod", "pdisp"):
            if scheme in cells:
                checks[f"{scheme}_beats_traditional_{pattern}"] = bool(
                    cells[scheme]["telemetry"]["balance"]
                    < base["telemetry"]["balance"]
                )
    return checks


def render(data: Mapping) -> str:
    """Tables + balance charts, one section per traffic pattern."""
    sections = []
    for pattern, cells in data["patterns"].items():
        rows = [
            {**payload["telemetry"],
             "throughput_rps": payload["throughput_rps"],
             "chunk_skew": payload.get("chunk_skew")}
            for payload in cells.values()
        ]
        sections.append(shard_balance_table(
            rows,
            title=(f"Store sharding — {pattern} traffic "
                   f"({data['n_requests']} requests, "
                   f"{data['n_shards']} shards)"),
        ))
        sections.append(shard_balance_chart(
            rows, title=f"balance (1.0 = ideal) — {pattern}"))
    checks = data.get("checks", {})
    if checks:
        verdict = "ok" if all(checks.values()) else "VIOLATED"
        sections.append(
            f"Figure 5 ordering on served traffic: {verdict} "
            f"({sum(checks.values())}/{len(checks)} prime-vs-traditional "
            f"comparisons hold)"
        )
    return "\n\n".join(sections)


def _build(ctx: ExperimentContext) -> Dict:
    n_requests = max(1, int(int(ctx.param("requests", 20000))
                            * ctx.config.scale))
    params = {
        "n_requests": n_requests,
        "n_shards": int(ctx.param("n_shards", 64)),
        "shard_capacity": int(ctx.param("shard_capacity", 512)),
        "assoc": int(ctx.param("assoc", 8)),
        "replacement": str(ctx.param("replacement", "lru")),
        "workers": int(ctx.param("workers", 1)),
        "seed": ctx.config.seed,
    }
    schemes = list(ctx.param("schemes", DEFAULT_SCHEMES))
    grid = {
        pattern: {
            scheme: ctx.cached(f"store-{pattern}", scheme, params,
                               partial(measure, pattern, scheme, **params))
            for scheme in schemes
        }
        for pattern in ctx.param("patterns", DEFAULT_PATTERNS)
    }
    return {
        "n_requests": n_requests,
        "n_shards": params["n_shards"],
        "shard_capacity": params["shard_capacity"],
        "assoc": params["assoc"],
        "replacement": params["replacement"],
        "workers": params["workers"],
        "patterns": grid,
        "checks": ordering_checks(grid),
    }


def _render_artifact(artifact: Mapping) -> str:
    return render(artifact["data"])


register(ExperimentSpec(
    name="store_sharding",
    title="Store sharding: shard balance under skewed traffic (extension)",
    build=_build,
    render=_render_artifact,
    uses_simulation=False,
))


if __name__ == "__main__":
    from repro.experiments.__main__ import main
    main(["store_sharding", *sys.argv[1:]])
