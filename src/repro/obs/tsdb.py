"""`repro.obs.tsdb` — an embedded time-series store for telemetry.

Registries answer "what is the value *now*"; the trend questions the
roadmap's raw-speed push keeps asking ("is p99 creeping?", "did the
scrape rate fall after the reshard?") need values *over time*.  This
module is the smallest honest in-memory database for that job:
per-series append-only rings with two tiers —

* a **raw tier** of the most recent ``retention_points`` samples,
  exactly as appended;
* a **downsampled tier** that raw blocks age into at
  ``downsample_ratio``:1 — counters keep the block's last cumulative
  sample (so :meth:`TimeSeriesStore.rate` differences across tiers and
  an increment landing between two blocks is never lost), gauges
  become the block mean, and sketch samples merge into one block
  sketch (exact, by construction) — so old history keeps its
  quantiles at 1/10th the storage.

Each age-out journals ``obs.tsdb_evict`` and counts on
``fed.tsdb.evictions``; appends count on ``fed.tsdb.appends``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.journal import Journal, get_journal
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.sketch import QuantileSketch

__all__ = ["Point", "TimeSeriesStore"]

#: Raw samples retained per series before the oldest block ages out.
DEFAULT_RETENTION_POINTS = 512

#: Raw points folded into one downsampled point on age-out.
DEFAULT_DOWNSAMPLE_RATIO = 10


class Point:
    """One sample: time, value, and how it should aggregate.

    ``kind`` is ``"gauge"`` (mean on downsample), ``"counter"``
    (cumulative total; the block's last sample on downsample) or
    ``"sketch"`` (``value`` is a :class:`QuantileSketch`; merge on
    downsample).  ``span`` is how many raw samples the point
    summarizes: 1 for a raw point, the block size for an aged one.
    """

    __slots__ = ("t_s", "value", "kind", "span")

    def __init__(self, t_s: float, value: Any, kind: str = "gauge",
                 span: int = 1):
        self.t_s = t_s
        self.value = value
        self.kind = kind
        self.span = span

    def as_dict(self) -> Dict[str, Any]:
        value = (self.value.as_dict()
                 if isinstance(self.value, QuantileSketch) else self.value)
        return {"t_s": self.t_s, "value": value, "kind": self.kind,
                "span": self.span}

    def __repr__(self) -> str:
        return f"Point(t={self.t_s:.6g}, kind={self.kind}, span={self.span})"


class _Series:
    """One series' two tiers."""

    __slots__ = ("name", "raw", "downsampled")

    def __init__(self, name: str):
        self.name = name
        self.raw: deque = deque()
        self.downsampled: List[Point] = []


class TimeSeriesStore:
    """Two-tier in-memory time-series storage.

    Args:
        retention_points: raw samples kept per series.
        downsample_ratio: raw points folded into one aged point.
        registry / journal: where ``fed.tsdb.*`` telemetry and
            ``obs.tsdb_evict`` events land.
    """

    def __init__(self, retention_points: int = DEFAULT_RETENTION_POINTS,
                 downsample_ratio: int = DEFAULT_DOWNSAMPLE_RATIO,
                 registry: Optional[MetricsRegistry] = None,
                 journal: Optional[Journal] = None):
        if retention_points < 2:
            raise ValueError("retention_points must be >= 2")
        if downsample_ratio < 2:
            raise ValueError("downsample_ratio must be >= 2")
        self.retention_points = retention_points
        self.downsample_ratio = downsample_ratio
        self._registry = registry
        self._journal = journal
        self._series: Dict[str, _Series] = {}
        self.appends = 0
        self.evictions = 0

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    @property
    def journal(self) -> Journal:
        return self._journal if self._journal is not None else get_journal()

    # -- writing -------------------------------------------------------

    def append(self, series: str, t_s: float, value: Any,
               kind: str = "gauge") -> None:
        """Record one sample; ``kind`` fixes its downsample semantics.

        Counter samples are *cumulative totals* (what a registry
        counter reads), so :meth:`rate` can difference them; sketch
        samples accept a :class:`QuantileSketch` or its ``as_dict``
        form.  Out-of-order appends (``t_s`` before the series tail)
        are rejected — the rings are append-only by contract.
        """
        if kind not in ("gauge", "counter", "sketch"):
            raise ValueError(f"unknown point kind {kind!r}")
        if kind == "sketch" and isinstance(value, dict):
            value = QuantileSketch.from_dict(value)
        entry = self._series.get(series)
        if entry is None:
            entry = _Series(series)
            self._series[series] = entry
        if entry.raw and t_s < entry.raw[-1].t_s:
            raise ValueError(
                f"series {series!r}: append at t={t_s} behind tail "
                f"t={entry.raw[-1].t_s} (rings are append-only)")
        entry.raw.append(Point(t_s, value, kind))
        self.appends += 1
        self.registry.counter("fed.tsdb.appends").inc()
        if len(entry.raw) > self.retention_points:
            self._age_out(entry)

    def _age_out(self, entry: _Series) -> None:
        """Fold the oldest ``downsample_ratio`` raw points into one
        downsampled point; journals the eviction."""
        block = [entry.raw.popleft()
                 for _ in range(min(self.downsample_ratio, len(entry.raw)))]
        entry.downsampled.append(self._downsample(block))
        self.evictions += 1
        self.registry.counter("fed.tsdb.evictions").inc()
        self.journal.emit("obs.tsdb_evict", series=entry.name,
                          points=len(block),
                          from_s=block[0].t_s, to_s=block[-1].t_s)

    @staticmethod
    def _downsample(block: Sequence[Point]) -> Point:
        """One aged point summarizing ``block`` (oldest raw samples)."""
        kind = block[0].kind
        span = sum(p.span for p in block)
        if kind == "counter":
            # The last cumulative total, at its own time: rate()
            # differences it against the next block, so an increment
            # between two blocks is kept.
            return Point(block[-1].t_s, block[-1].value, "counter", span)
        t_mid = block[len(block) // 2].t_s
        if kind == "sketch":
            merged = QuantileSketch.merged(
                [p.value for p in block
                 if isinstance(p.value, QuantileSketch)])
            return Point(t_mid, merged, "sketch", span)
        mean = sum(float(p.value) for p in block) / len(block)
        return Point(t_mid, mean, "gauge", span)

    # -- querying ------------------------------------------------------

    def series_names(self) -> List[str]:
        return sorted(self._series)

    def _points(self, series: str) -> List[Point]:
        entry = self._series.get(series)
        if entry is None:
            return []
        return list(entry.downsampled) + list(entry.raw)

    def range(self, series: str, t0_s: float = -math.inf,
              t1_s: float = math.inf) -> List[Point]:
        """Retained points with ``t0_s <= t < t1_s``, oldest first
        (downsampled tier first, then raw)."""
        return [p for p in self._points(series) if t0_s <= p.t_s < t1_s]

    def rate(self, series: str, t0_s: float = -math.inf,
             t1_s: float = math.inf) -> float:
        """Average per-second rate of a counter series over the window:
        the difference between its first and last cumulative samples,
        whichever tier each sits in (0.0 with fewer than two)."""
        samples = [p for p in self.range(series, t0_s, t1_s)
                   if p.kind == "counter"]
        if len(samples) < 2:
            return 0.0
        dt = samples[-1].t_s - samples[0].t_s
        if dt <= 0:
            return 0.0
        return (float(samples[-1].value) - float(samples[0].value)) / dt

    def quantile(self, series: str, q: float, t0_s: float = -math.inf,
                 t1_s: float = math.inf) -> float:
        """The ``q``-percentile (0–100) of every sketch sample in the
        window, merged — raw and downsampled tiers contribute alike
        because sketch downsampling is a merge, not an approximation
        on top of an approximation."""
        sketches = [p.value for p in self.range(series, t0_s, t1_s)
                    if isinstance(p.value, QuantileSketch)]
        if not sketches:
            return math.nan
        return QuantileSketch.merged(sketches).percentile(q)

    def __len__(self) -> int:
        return len(self._series)

    def __repr__(self) -> str:
        return (f"TimeSeriesStore(series={len(self._series)}, "
                f"appends={self.appends}, evictions={self.evictions})")
