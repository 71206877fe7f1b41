"""Process-wide metrics registry: counters, gauges, windowed histograms.

The registry is the single sink every instrumented layer (engine,
store, experiments) reports into.  Three instrument kinds:

* :class:`Counter` — monotonically increasing event count;
* :class:`Gauge` — last-written value (occupancy, balance, ...);
* :class:`Histogram` — bounded window of observations with streaming
  ``count``/``sum``/``min``/``max`` plus windowed p50/p95/p99,
  optionally feeding a lifetime quantile sketch the federation layer
  merges across nodes.

Instruments are identified by ``(name, labels)``; the same name with
different labels is a *labeled series* (e.g. one
``store.shard.latency_s`` histogram per shard id).  Names are
dot-separated ``<layer>.<subject>.<unit>`` by convention (see
``docs/observability.md``).

**Zero overhead when off** is the design constraint: a disabled
registry's ``counter()`` / ``gauge()`` / ``histogram()`` return one
shared :data:`NULL` instrument whose mutators are no-ops, and the
registry records nothing — hot paths may therefore resolve and cache
instruments unconditionally, or guard bigger blocks with
``registry.enabled``.  The module-level default registry starts
disabled; ``python -m repro.experiments <name> --metrics-out`` (or
:func:`repro.obs.enable_observability`) switches it on.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.sketch import QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL",
    "NullInstrument",
    "get_registry",
    "set_registry",
]

#: Default observation-window length for histograms.
DEFAULT_HISTOGRAM_WINDOW = 4096

#: ``(name, sorted label items)`` — one instrument identity.
SeriesKey = Tuple[str, Tuple[Tuple[str, Any], ...]]


def _series_key(name: str, labels: Dict[str, Any]) -> SeriesKey:
    return name, tuple(sorted(labels.items()))


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: Dict[str, Any]):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "labels": dict(self.labels),
                "value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.labels}, value={self.value})"


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: Dict[str, Any]):
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "labels": dict(self.labels),
                "value": self.value}

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.labels}, value={self.value})"


class Histogram:
    """Windowed distribution with streaming totals.

    ``count``/``sum``/``min``/``max`` cover the full lifetime;
    percentiles are computed over the last ``window`` observations so
    a long-lived process reports *recent* latency, not its cold start
    averaged away (the same bounded-window reasoning as the store's
    concentration telemetry).

    **Exemplars.** ``observe(value, exemplar=trace_id)`` retains the
    trace id alongside the observation, in a deque sharing the window's
    ``maxlen`` and appended in lockstep — so an exemplar is evicted at
    the exact moment its observation leaves the window and can never
    outlive its bucket.  This is what links a p99 quantile to a
    concrete recorded trace (see :mod:`repro.obs.attrib`).  The first
    time an exemplar-carrying observation is evicted, the histogram
    journals one edge-triggered ``obs.exemplar_drop`` event;
    ``exemplar_drops`` counts every such eviction.

    **Sketch.** With ``sketch=True`` (``registry.histogram(name,
    sketch=True)``) every observation also lands in a
    :class:`~repro.obs.sketch.QuantileSketch` covering the series'
    *full lifetime*, and the snapshot row carries its payload; the
    federation layer (:mod:`repro.obs.fed`) sums those sketches across
    nodes into true cluster-wide quantiles.  A merged histogram holds
    the summed sketch and no raw window, so its ``percentile()`` and
    ``window_values()`` answer from the sketch.
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max",
                 "_window", "_exemplars", "exemplar_drops", "_drop_noted",
                 "sketch")

    kind = "histogram"

    def __init__(self, name: str, labels: Dict[str, Any],
                 window: int = DEFAULT_HISTOGRAM_WINDOW,
                 sketch: bool = False):
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._window: deque = deque(maxlen=window)
        self._exemplars: deque = deque(maxlen=window)
        self.exemplar_drops = 0
        self._drop_noted = False
        self.sketch: Optional[QuantileSketch] = (
            QuantileSketch() if sketch else None)

    @property
    def window(self) -> int:
        return self._window.maxlen

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if (len(self._window) == self._window.maxlen
                and self._exemplars and self._exemplars[0] is not None):
            self._note_exemplar_drop()
        self._window.append(value)
        self._exemplars.append(exemplar)
        if self.sketch is not None:
            self.sketch.add(value)

    def _note_exemplar_drop(self) -> None:
        """An exemplar-carrying observation just aged out of the
        window.  Journaled once per histogram (edge-triggered) so a
        busy series does not flood the journal."""
        self.exemplar_drops += 1
        if not self._drop_noted:
            self._drop_noted = True
            from repro.obs.journal import get_journal
            get_journal().emit("obs.exemplar_drop", histogram=self.name,
                               labels=dict(self.labels),
                               window=self.window)

    def exemplars(self, n: int = 4) -> List[Dict[str, Any]]:
        """Largest-valued retained exemplars — the concrete traces
        behind the tail quantiles, heaviest first."""
        pairs = [(v, e) for v, e in zip(self._window, self._exemplars)
                 if e is not None]
        pairs.sort(key=lambda p: p[0], reverse=True)
        return [{"value": v, "trace_id": e} for v, e in pairs[:n]]

    def percentile(self, q: float) -> float:
        """Windowed percentile ``q`` in [0, 100]; NaN when empty.

        Nearest-rank on the sorted window — cheap, monotone, and exact
        for the small windows the registry keeps.  With no raw window
        but a sketch (a federation merge) the sketch answers, within
        its relative accuracy.
        """
        if not self._window:
            return (math.nan if self.sketch is None
                    else self.sketch.percentile(q))
        ordered = sorted(self._window)
        rank = max(0, min(len(ordered) - 1,
                          math.ceil(q / 100.0 * len(ordered)) - 1))
        return ordered[rank]

    def window_values(self) -> List[float]:
        """The retained observation window, oldest first.

        The raw values back the health layer's threshold counting
        (fraction of recent observations over an SLO threshold), which
        a percentile summary cannot answer exactly.  With no raw window
        but a sketch (a federation merge) they are the sketch's
        per-observation representatives.
        """
        if not self._window and self.sketch is not None:
            return self.sketch.reconstruct()
        return list(self._window)

    def summary(self) -> Dict[str, Any]:
        empty = self.count == 0
        return {
            "count": self.count,
            "sum": self.total,
            "min": math.nan if empty else self.min,
            "max": math.nan if empty else self.max,
            "mean": math.nan if empty else self.total / self.count,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "window": self.window,
        }

    def as_dict(self) -> Dict[str, Any]:
        payload = {"name": self.name, "labels": dict(self.labels),
                   **self.summary(), "exemplars": self.exemplars()}
        if self.sketch is not None:
            # Additive within snapshot schema v1: readers that don't
            # know about sketches ignore the extra field.
            payload["sketch"] = self.sketch.as_dict()
        return payload

    def __repr__(self) -> str:
        return (f"Histogram({self.name!r}, {self.labels}, "
                f"count={self.count})")


class NullInstrument:
    """The disabled fast path: every mutator is a no-op.

    One shared instance stands in for every instrument kind, so
    instrumented code can cache handles without knowing whether the
    registry is live.
    """

    __slots__ = ()

    kind = "null"
    name = ""
    labels: Dict[str, Any] = {}
    value = 0
    count = 0

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        pass

    def percentile(self, q: float) -> float:
        return math.nan

    def window_values(self) -> List[float]:
        return []

    def exemplars(self, n: int = 4) -> List[Dict[str, Any]]:
        return []

    def summary(self) -> Dict[str, Any]:
        return {}

    def __repr__(self) -> str:
        return "NullInstrument()"


#: The shared no-op instrument returned by every disabled registry.
NULL = NullInstrument()


class MetricsRegistry:
    """Thread-safe factory + container for the process's instruments.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the
    first call for a ``(name, labels)`` pair creates the series, later
    calls return the same object.  While ``enabled`` is False they
    return :data:`NULL` and create nothing, so the off path allocates
    no entries and the snapshot stays empty.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._series: Dict[SeriesKey, Any] = {}

    # -- lifecycle -----------------------------------------------------

    def enable(self) -> "MetricsRegistry":
        self.enabled = True
        return self

    def disable(self) -> "MetricsRegistry":
        self.enabled = False
        return self

    def clear(self) -> None:
        """Drop every series (counters reset by disappearing)."""
        with self._lock:
            self._series.clear()

    # -- instrument factories ------------------------------------------

    def _get_or_create(self, cls, name: str, labels: Dict[str, Any],
                       **kwargs):
        key = _series_key(name, labels)
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.get(key)
                if series is None:
                    series = cls(name, labels, **kwargs)
                    self._series[key] = series
        if not isinstance(series, cls):
            raise TypeError(
                f"metric {name!r} with labels {labels} already registered "
                f"as a {series.kind}, not a {cls.kind}"
            )
        return series

    def counter(self, name: str, **labels: Any) -> Counter:
        if not self.enabled:
            return NULL
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        if not self.enabled:
            return NULL
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, window: int = DEFAULT_HISTOGRAM_WINDOW,
                  sketch: bool = False, **labels: Any) -> Histogram:
        """Get-or-create a histogram; ``sketch=True`` requests one that
        also feeds a lifetime quantile sketch (the federation feed).
        Asking without a sketch for a series declared with one returns
        it; the reverse raises, because a sketchless histogram cannot
        honour the cluster-wide merge the caller expects — declare the
        series as kind ``"sketch"`` instead.
        """
        if not self.enabled:
            return NULL
        series = self._get_or_create(Histogram, name, labels,
                                     window=window, sketch=sketch)
        if sketch and series.sketch is None:
            raise TypeError(
                f"metric {name!r} with labels {labels} already registered "
                f"as a histogram without a sketch")
        return series

    def adopt(self, instrument: Any) -> Any:
        """Install a fully-built instrument under its own identity.

        The federation aggregator builds merged instruments off-line
        (summed counters, merged sketches) and adopts them into a
        fresh registry so every existing read-side consumer —
        ``matching()``, snapshots, the SLO engine — works on the
        merged view unchanged.  Replaces any existing series with the
        same ``(name, labels)`` identity.
        """
        key = _series_key(instrument.name, instrument.labels)
        with self._lock:
            self._series[key] = instrument
        return instrument

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self._series)

    def series(self, kind: str = None) -> Iterator[Any]:
        """All instruments, in (name, labels) order, optionally by kind."""
        with self._lock:
            items = sorted(self._series.items())
        for _, instrument in items:
            if kind is None or instrument.kind == kind:
                yield instrument

    def matching(self, name: str, **labels: Any) -> List[Any]:
        """Instruments named ``name`` whose labels contain ``labels``.

        Label-*subset* match: ``matching("serve.latency_s",
        scheme="pmod")`` returns every ``serve.latency_s`` series
        labeled with that scheme regardless of its other labels.  The
        health layer's SLO evaluation aggregates over this.
        """
        wanted = labels.items()
        return [instrument for instrument in self.series()
                if instrument.name == name
                and all(instrument.labels.get(k) == v for k, v in wanted)]

    def counters(self) -> List[Counter]:
        return list(self.series("counter"))

    def gauges(self) -> List[Gauge]:
        return list(self.series("gauge"))

    def histograms(self) -> List[Histogram]:
        return list(self.series("histogram"))

    def snapshot(self) -> Dict[str, List[Dict[str, Any]]]:
        """JSON-serializable dump of every series (the ``metrics`` block
        of the snapshot schema)."""
        return {
            "counters": [c.as_dict() for c in self.counters()],
            "gauges": [g.as_dict() for g in self.gauges()],
            "histograms": [h.as_dict() for h in self.histograms()],
        }

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"MetricsRegistry({state}, series={len(self._series)})"


#: Process-wide default registry; disabled until observability is
#: switched on, so un-instrumented runs pay only a no-op call.
_global_registry = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-wide registry (disabled by default)."""
    return _global_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide registry; returns the previous one."""
    global _global_registry
    previous = _global_registry
    _global_registry = registry
    return previous
