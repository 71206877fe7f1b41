"""Export sinks for the metrics registry and trace collector.

Three formats, one source of truth:

* :func:`metrics_snapshot` / :func:`write_snapshot` — the JSON
  document written by ``--metrics-out`` (schema below, versioned by
  :data:`SNAPSHOT_SCHEMA_VERSION`, checked by
  :func:`validate_snapshot`);
* :func:`to_prometheus` — Prometheus text exposition format (v0.0.4:
  ``# TYPE`` headers, label sets, histogram summaries as quantile
  series) for scraping or pushing;
* :func:`metrics_table` — the human-readable tables, rendered through
  :mod:`repro.reporting` like every other report in the repo; their
  rows come from :func:`metric_tables`, which the dashboard's metrics
  panel draws too.

Snapshot schema (version 1)::

    {
      "schema_version": 1,
      "generated_unix_s": <float, time.time()>,
      "metrics": {
        "counters":   [{"name", "labels", "value"}, ...],
        "gauges":     [{"name", "labels", "value"}, ...],
        "histograms": [{"name", "labels", "count", "sum", "min", "max",
                        "mean", "p50", "p95", "p99", "window",
                        "exemplars"}, ...]
      },
      "spans": [{"name", "labels", "start_s", "duration_s", "thread",
                 "depth", "parent"}, ...]   # depth-first; parent = index
    }

``spans`` is :meth:`~repro.obs.attrib.TraceCollector.flat`: the
collector's span roots and retained request traces, roots in start
order.

``exemplars`` is additive within schema version 1 (readers of v1
ignore unknown fields): a list of ``{"value", "trace_id"}`` pairs
linking a histogram's tail to concrete recorded traces; validated when
present.  :func:`to_prometheus` renders the same pairs as
OpenMetrics-style exemplar suffixes (``... # {trace_id="..."} value``)
on the quantile lines.

NaNs (an empty histogram's percentiles, an idle store's balance) are
serialized as ``null`` so the file is strict JSON.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.obs.attrib import TraceCollector
from repro.obs.registry import MetricsRegistry

__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "metric_tables",
    "metrics_snapshot",
    "metrics_table",
    "to_prometheus",
    "validate_snapshot",
    "write_snapshot",
]

#: Version of the ``--metrics-out`` snapshot document.
SNAPSHOT_SCHEMA_VERSION = 1

#: Keys every snapshot must carry.
_REQUIRED_KEYS = ("schema_version", "generated_unix_s", "metrics", "spans")

_METRIC_KINDS = ("counters", "gauges", "histograms")

_HISTOGRAM_FIELDS = ("count", "sum", "min", "max", "mean", "p50", "p95",
                     "p99", "window")


def _de_nan(value: Any) -> Any:
    """NaN/inf → None, recursively, so the snapshot is strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _de_nan(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_de_nan(v) for v in value]
    return value


def metrics_snapshot(registry: MetricsRegistry,
                     collector: Optional[TraceCollector] = None
                     ) -> Dict[str, Any]:
    """The full snapshot document for ``registry`` (+ the collector's
    spans, if given)."""
    return _de_nan({
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "generated_unix_s": time.time(),
        "metrics": registry.snapshot(),
        "spans": collector.flat() if collector is not None else [],
    })


def write_snapshot(path: Union[str, os.PathLike],
                   registry: MetricsRegistry,
                   collector: Optional[TraceCollector] = None) -> Path:
    """Write the snapshot JSON to ``path``; returns the path."""
    path = Path(path)
    snapshot = metrics_snapshot(registry, collector)
    path.write_text(json.dumps(snapshot, indent=1) + "\n")
    return path


def validate_snapshot(snapshot: Mapping) -> None:
    """Raise ValueError unless ``snapshot`` matches the schema above."""
    missing = [k for k in _REQUIRED_KEYS if k not in snapshot]
    if missing:
        raise ValueError(f"snapshot is missing keys: {', '.join(missing)}")
    if snapshot["schema_version"] != SNAPSHOT_SCHEMA_VERSION:
        raise ValueError(
            f"snapshot schema v{snapshot['schema_version']} != "
            f"supported v{SNAPSHOT_SCHEMA_VERSION}"
        )
    metrics = snapshot["metrics"]
    if not isinstance(metrics, Mapping):
        raise ValueError("snapshot 'metrics' must be a mapping")
    for kind in _METRIC_KINDS:
        rows = metrics.get(kind)
        if not isinstance(rows, list):
            raise ValueError(f"snapshot metrics[{kind!r}] must be a list")
        for row in rows:
            for field in ("name", "labels"):
                if field not in row:
                    raise ValueError(f"{kind} entry missing {field!r}: {row}")
            if kind == "histograms":
                lacking = [f for f in _HISTOGRAM_FIELDS if f not in row]
                if lacking:
                    raise ValueError(
                        f"histogram {row.get('name')!r} missing fields: "
                        f"{', '.join(lacking)}"
                    )
                for ex in row.get("exemplars", []):
                    if not isinstance(ex, Mapping) or "value" not in ex \
                            or "trace_id" not in ex:
                        raise ValueError(
                            f"histogram {row.get('name')!r} exemplar must "
                            f"carry value + trace_id: {ex}"
                        )
            elif "value" not in row:
                raise ValueError(f"{kind} entry missing 'value': {row}")
    if not isinstance(snapshot["spans"], list):
        raise ValueError("snapshot 'spans' must be a list")
    for span in snapshot["spans"]:
        for field in ("name", "start_s", "depth", "parent"):
            if field not in span:
                raise ValueError(f"span entry missing {field!r}: {span}")


# -- Prometheus text exposition ---------------------------------------


def _prom_name(name: str, suffix: str = "") -> str:
    """Metric name in Prometheus charset (dots/dashes → underscores)."""
    cleaned = "".join(
        c if c.isalnum() or c == "_" else "_" for c in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned + suffix


def _prom_label_value(value: Any) -> str:
    """A label value escaped per the exposition format: backslash,
    double quote, and newline must be escaped inside the quotes."""
    return (str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def _prom_labels(labels: Dict[str, Any], extra: Dict[str, Any] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{_prom_name(str(k))}="{_prom_label_value(v)}"'
        for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def _prom_value(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return repr(value) if isinstance(value, float) else str(value)


def _nearest_exemplar(exemplars: List[Dict[str, Any]],
                      quantile_value: Any) -> Optional[Dict[str, Any]]:
    """The retained exemplar closest in value to a quantile — the
    concrete trace a scraper should follow for that bucket."""
    if not exemplars:
        return None
    if not isinstance(quantile_value, (int, float)) \
            or not math.isfinite(quantile_value):
        return exemplars[0]
    return min(exemplars, key=lambda ex: abs(ex["value"] - quantile_value))


def to_prometheus(registry: MetricsRegistry) -> str:
    """Registry contents in Prometheus text exposition format.

    Counters and gauges map directly; histograms are exposed as
    summaries (``quantile`` series from the window plus lifetime
    ``_sum`` / ``_count``), which is the faithful rendering of a
    windowed-percentile instrument.
    """
    lines: List[str] = []
    typed: set = set()

    def header(name: str, kind: str) -> None:
        if name not in typed:
            lines.append(f"# TYPE {name} {kind}")
            typed.add(name)

    for counter in registry.counters():
        name = _prom_name(counter.name, "_total")
        header(name, "counter")
        lines.append(f"{name}{_prom_labels(counter.labels)} "
                     f"{_prom_value(counter.value)}")
    for gauge in registry.gauges():
        name = _prom_name(gauge.name)
        header(name, "gauge")
        lines.append(f"{name}{_prom_labels(gauge.labels)} "
                     f"{_prom_value(gauge.value)}")
    for histogram in registry.histograms():
        name = _prom_name(histogram.name)
        header(name, "summary")
        summary = histogram.summary()
        exemplars = histogram.exemplars()
        for q, field in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            line = (
                f"{name}{_prom_labels(histogram.labels, {'quantile': q})} "
                f"{_prom_value(summary[field])}"
            )
            exemplar = _nearest_exemplar(exemplars, summary[field])
            if exemplar is not None:
                line += (f' # {{trace_id="'
                         f'{_prom_label_value(exemplar["trace_id"])}"}} '
                         f'{_prom_value(exemplar["value"])}')
            lines.append(line)
        lines.append(f"{name}_sum{_prom_labels(histogram.labels)} "
                     f"{_prom_value(summary['sum'])}")
        lines.append(f"{name}_count{_prom_labels(histogram.labels)} "
                     f"{_prom_value(summary['count'])}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- human-readable tables --------------------------------------------


def _fmt_labels(labels: Dict[str, Any]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"


def _fmt_float(value: Any) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    return f"{value:.6g}"


def metric_tables(metrics: Mapping[str, Any]
                  ) -> List[Tuple[str, List[str], List[List[str]]]]:
    """``(title, headers, rows)`` for a snapshot's ``metrics`` block:
    counters/gauges, then histogram summaries, each left out when it
    has no rows (the dashboard's metrics panel draws the same tables)."""
    tables = []
    scalar_rows = sorted(
        [row["name"], kind[:-1], _fmt_labels(row["labels"]),
         _fmt_float(row["value"])]
        for kind in ("counters", "gauges") for row in metrics[kind])
    if scalar_rows:
        tables.append(("counters / gauges",
                       ["metric", "kind", "labels", "value"], scalar_rows))
    hist_rows = sorted(
        [row["name"], _fmt_labels(row["labels"]), str(row["count"])]
        + [_fmt_float(row[field])
           for field in ("mean", "p50", "p95", "p99", "max")]
        for row in metrics["histograms"])
    if hist_rows:
        tables.append(("histograms (windowed percentiles)",
                       ["histogram", "labels", "count", "mean", "p50",
                        "p95", "p99", "max"], hist_rows))
    return tables


def metrics_table(registry: MetricsRegistry) -> str:
    """Counters/gauges and histogram summaries as aligned tables."""
    from repro.reporting import format_table  # deferred: keep obs light

    return "\n\n".join(
        format_table(headers, rows, title=title)
        for title, headers, rows in metric_tables(registry.snapshot())
    ) or "(no metrics recorded)"
