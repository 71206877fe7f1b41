"""`repro.store` — a sharded in-memory object store routed by the
paper's indexing functions.

The rest of the package *analyzes* hashing functions against simulated
cache addresses; this subsystem *serves requests* through them.  A
:class:`RoutingTable` routes keys to shards through a :mod:`repro.hashing`
scheme (prime shard counts for pMod, the paper's p = 9 displacement for
pDisp, secret-keyed variants of both); each shard is a capacity-bounded
set-associative segment (:class:`Shard`) evicting through
:mod:`repro.cache.replacement` policies; :class:`ShardedStore` fronts
them with ``get``/``put``/``delete``, per-shard and global statistics,
and live balance (Eq. 1) / concentration (Eq. 2) telemetry computed by
:mod:`repro.hashing.analysis` over the observed shard-access stream.

:mod:`repro.store.traffic` generates the request streams the paper's
argument is about — hot-key Zipfian, strided batch walks, and
power-of-two-aligned keys — and :mod:`repro.store.driver` replays them
concurrently (one lock per shard) and reports throughput and tail
per-shard load.
"""

from repro.store.driver import ReplayError, ReplayReport, replay
from repro.store.engine import ShardedStore, StoreTelemetry
from repro.store.migrate import DEFAULT_MOVE_BUDGET, MigrationReport, Migrator
from repro.store.routing import (
    STORE_SCHEMES,
    RoutingTable,
    ladder_down,
    ladder_up,
    make_selector,
    normalize_shard_count,
    prime_capable,
)
from repro.store.shard import Shard, ShardStats
from repro.store.traffic import (
    Request,
    TRAFFIC_PATTERNS,
    available_patterns,
    make_traffic,
    power_of_two_traffic,
    request_keys,
    strided_traffic,
    zipfian_traffic,
)

__all__ = [
    "DEFAULT_MOVE_BUDGET",
    "MigrationReport",
    "Migrator",
    "Request",
    "ReplayError",
    "ReplayReport",
    "RoutingTable",
    "STORE_SCHEMES",
    "Shard",
    "ShardStats",
    "ShardedStore",
    "StoreTelemetry",
    "TRAFFIC_PATTERNS",
    "available_patterns",
    "ladder_down",
    "ladder_up",
    "make_selector",
    "make_traffic",
    "normalize_shard_count",
    "power_of_two_traffic",
    "prime_capable",
    "replay",
    "request_keys",
    "strided_traffic",
    "zipfian_traffic",
]
