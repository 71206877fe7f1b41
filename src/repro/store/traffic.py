"""Request-stream generators for the store: the paper's pathological
address patterns, re-expressed as key traffic.

Three families, all deterministic under a seed:

* :func:`zipfian_traffic` — hot-key skew: a few keys absorb most
  requests (the classic serving workload).  Shard *selection* cannot fix
  per-key hotness, but a good scheme keeps the non-hot mass spread.
* :func:`strided_traffic` — batch jobs walking a keyspace at a fixed
  stride, the software analogue of the Figure 5/6 sweeps.  Even strides
  are exactly the streams that collapse power-of-two modulo routing.
* :func:`power_of_two_traffic` — keys aligned to a power-of-two
  boundary (page-, slab- or bucket-aligned object ids); the pattern the
  paper's motivating examples (Section 1) are built from.

Each generator returns a list of :class:`Request`; :func:`request_keys`
extracts the key array for vectorized, store-free analysis through a
:class:`~repro.store.routing.RoutingTable` (``shard_array``) or its
``indexing``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

#: Request operations understood by the replay driver.
OPS = ("get", "put", "delete")


class Request(NamedTuple):
    """One store request: ``op`` applied to ``key`` (value for puts),
    as an immutable tuple."""

    op: str
    key: int
    value: Optional[int] = None


def _assemble(keys: np.ndarray, put_fraction: float, delete_fraction: float,
              rng: np.random.Generator) -> List[Request]:
    """Mix gets/puts/deletes over a key stream.

    Every key's *first* appearance is forced to a put so gets have
    something to hit; afterwards ops are drawn iid from the mix.
    """
    if not 0.0 <= put_fraction <= 1.0 or not 0.0 <= delete_fraction <= 1.0:
        raise ValueError("op fractions must be within [0, 1]")
    if put_fraction + delete_fraction > 1.0:
        raise ValueError("put_fraction + delete_fraction must be <= 1")
    draws = rng.random(len(keys))
    seen = set()
    requests: List[Request] = []
    for i, key in enumerate(keys):
        key = int(key)
        if key not in seen or draws[i] < put_fraction:
            seen.add(key)
            requests.append(Request("put", key, value=i))
        elif draws[i] < put_fraction + delete_fraction:
            seen.discard(key)
            requests.append(Request("delete", key))
        else:
            requests.append(Request("get", key))
    return requests


def zipfian_traffic(n_requests: int, n_keys: int = 4096, alpha: float = 1.1,
                    key_stride: int = 1, base: int = 0, seed: int = 0,
                    put_fraction: float = 0.1,
                    delete_fraction: float = 0.0) -> List[Request]:
    """Hot-key traffic: ranks drawn Zipf(alpha) over a shuffled keyspace."""
    if n_requests <= 0 or n_keys <= 0:
        raise ValueError("n_requests and n_keys must be positive")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n_keys + 1, dtype=np.float64) ** alpha
    ranks = rng.choice(n_keys, size=n_requests, p=weights / weights.sum())
    # Shuffle rank -> key so the hot keys are not numerically adjacent.
    key_of_rank = rng.permutation(n_keys).astype(np.uint64)
    keys = np.uint64(base) + key_of_rank[ranks] * np.uint64(key_stride)
    return _assemble(keys, put_fraction, delete_fraction, rng)


def strided_traffic(n_requests: int, stride: int = 64,
                    working_set: int = 4096, base: int = 0, seed: int = 0,
                    put_fraction: float = 0.1,
                    delete_fraction: float = 0.0) -> List[Request]:
    """Batch walk: cyclic sweep over ``working_set`` keys ``stride`` apart."""
    if n_requests <= 0 or working_set <= 0:
        raise ValueError("n_requests and working_set must be positive")
    if stride <= 0:
        raise ValueError("stride must be positive")
    rng = np.random.default_rng(seed)
    positions = np.arange(n_requests, dtype=np.uint64) % np.uint64(working_set)
    keys = np.uint64(base) + positions * np.uint64(stride)
    return _assemble(keys, put_fraction, delete_fraction, rng)


def power_of_two_traffic(n_requests: int, alignment: int = 512,
                         n_objects: int = 512, base: int = 0, seed: int = 0,
                         put_fraction: float = 0.1,
                         delete_fraction: float = 0.0) -> List[Request]:
    """Aligned-object traffic: every key a multiple of ``alignment``."""
    if n_requests <= 0 or n_objects <= 0:
        raise ValueError("n_requests and n_objects must be positive")
    if alignment < 1 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    rng = np.random.default_rng(seed)
    objects = rng.integers(0, n_objects, size=n_requests, dtype=np.uint64)
    keys = np.uint64(base) + objects * np.uint64(alignment)
    return _assemble(keys, put_fraction, delete_fraction, rng)


#: pattern key -> generator(n_requests, seed=, **kwargs).
TRAFFIC_PATTERNS: Dict[str, Callable[..., List[Request]]] = {
    "zipfian": zipfian_traffic,
    "strided": strided_traffic,
    "pow2": power_of_two_traffic,
}


def make_traffic(pattern: str, n_requests: int, seed: int = 0,
                 **kwargs) -> List[Request]:
    """Generate a named traffic pattern (zipfian / strided / pow2)."""
    try:
        generator = TRAFFIC_PATTERNS[pattern]
    except KeyError:
        known = ", ".join(sorted(TRAFFIC_PATTERNS))
        raise KeyError(f"unknown traffic pattern {pattern!r}; known: {known}") from None
    return generator(n_requests, seed=seed, **kwargs)


def available_patterns() -> List[str]:
    """Registered traffic pattern keys, sorted."""
    return sorted(TRAFFIC_PATTERNS)


def request_keys(requests: List[Request]) -> np.ndarray:
    """The key stream as a uint64 array (for vectorized shard analysis)."""
    return np.fromiter((r.key for r in requests), dtype=np.uint64,
                       count=len(requests))
