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
``--param workers=N`` replays every cell from N threads, the path that
drives the shard locks concurrently.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Mapping

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

#: Requests per cell at ``--scale 1``, and every cell's store: shard
#: count, per-shard capacity, ways per set and replacement policy.
REQUESTS = 20000
N_SHARDS = 64
SHARD_CAPACITY = 512
ASSOC = 8
REPLACEMENT = "lru"


def measure(pattern: str, scheme: str, n_requests: int, workers: int = 1,
            seed: int = 0) -> Dict:
    """Replay one (pattern, scheme) cell; returns the report payload."""
    store = ShardedStore(n_shards=N_SHARDS, scheme=scheme,
                         shard_capacity=SHARD_CAPACITY, assoc=ASSOC,
                         replacement=REPLACEMENT)
    requests = make_traffic(pattern, n_requests, seed=seed)
    return replay(store, requests, workers=workers).as_dict()


def run(n_requests: int = REQUESTS) -> Dict[str, Dict[str, Dict]]:
    """Full grid: ``result[pattern][scheme] = replay report payload``."""
    return {
        pattern: {
            scheme: measure(pattern, scheme, n_requests)
            for scheme in DEFAULT_SCHEMES
        }
        for pattern in DEFAULT_PATTERNS
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
    n_requests = max(1, int(REQUESTS * ctx.config.scale))
    workers = ctx.param("workers")
    config = {
        "n_requests": n_requests,
        "n_shards": N_SHARDS,
        "shard_capacity": SHARD_CAPACITY,
        "assoc": ASSOC,
        "replacement": REPLACEMENT,
        "workers": workers,
    }
    key = dict(config, seed=ctx.config.seed)
    grid = {
        pattern: {
            scheme: ctx.cached(f"store-{pattern}", scheme, key,
                               partial(measure, pattern, scheme, n_requests,
                                       workers, ctx.config.seed))
            for scheme in DEFAULT_SCHEMES
        }
        for pattern in DEFAULT_PATTERNS
    }
    return {**config, "patterns": grid, "checks": ordering_checks(grid)}


def _render_artifact(artifact: Mapping) -> str:
    return render(artifact["data"])


register(ExperimentSpec(
    name="store_sharding",
    title="Store sharding: shard balance under skewed traffic (extension)",
    build=_build,
    render=_render_artifact,
    uses_simulation=False,
    params={"workers": 1},
))
