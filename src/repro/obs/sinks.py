"""Export sinks for the metrics registry and trace collector.

Two formats, one source of truth:

* :func:`metrics_snapshot` / :func:`write_snapshot` — the JSON
  document written by ``--metrics-out`` (schema below, versioned by
  :data:`SNAPSHOT_SCHEMA_VERSION`, checked by
  :func:`validate_snapshot`);
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
present.

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
