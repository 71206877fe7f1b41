"""Unified health dashboard: one document for the whole system's state.

Collects the four observability surfaces into a single *dashboard
model* (a JSON-serializable dict) and renders it two ways:

* :func:`render_text` — the terminal dashboard (the repo's standard
  aligned tables plus unicode trend bars);
* :func:`render_html` — one **self-contained** HTML file: inline CSS,
  no scripts, no fonts, no images, no external requests of any kind —
  it renders identically from a file:// open on an air-gapped box.

The model's four sections:

1. **metrics** — a ``--metrics-out`` snapshot (live registry or a
   snapshot JSON loaded from disk);
2. **journal tail** — the most recent events from the
   :mod:`repro.obs.journal` stream;
3. **health** — active alerts, SLO statuses and drift verdicts from
   :mod:`repro.obs.health` evaluations;
4. **bench trajectory** — the ``BENCH_*.json`` metrics plus their
   :mod:`repro.obs.benchguard` history, sparklined.

Two cluster-scale panels join them when their sources exist:

* **federation** — per-node scrape state (version, staleness, up/down)
  and cluster-wide merged quantiles from a live
  :class:`~repro.obs.fed.Federation`;
* **time series** — per-series point counts and sparklines from a
  :class:`~repro.obs.tsdb.TimeSeriesStore` (live, or re-opened from a
  persisted directory via ``--tsdb``).

CLI::

    python -m repro.obs.dash --snapshot metrics.json \\
        [--journal run.jsonl] [--bench-root .] [--tsdb DIR] \\
        [--out dash.html]

renders a dashboard from files on disk; ``python -m repro.experiments
<name> --dash PATH`` writes one from the live run.
"""

from __future__ import annotations

import html
import json
import math
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.obs.attrib import TraceCollector
from repro.obs.journal import Journal, get_journal
from repro.obs.registry import MetricsRegistry
from repro.obs.sinks import metrics_snapshot

__all__ = [
    "build_dashboard",
    "render_html",
    "render_text",
    "write_dashboard",
]

#: Journal-tail rows shown on the dashboard.
DEFAULT_TAIL_ROWS = 40

#: Unicode trend glyphs for the bench trajectory (oldest -> newest).
_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

#: Trailing time-series points sparklined per series on the dashboard.
_TSDB_SPARK_POINTS = 40


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _spark(values: Sequence[float]) -> str:
    """One-line unicode trend bar (empty string for <2 points)."""
    finite = [v for v in values if isinstance(v, (int, float))
              and math.isfinite(v)]
    if len(finite) < 2:
        return ""
    lo, hi = min(finite), max(finite)
    span = hi - lo
    if span <= 0:
        return _SPARK_GLYPHS[0] * len(finite)
    return "".join(
        _SPARK_GLYPHS[min(len(_SPARK_GLYPHS) - 1,
                          int((v - lo) / span * len(_SPARK_GLYPHS)))]
        for v in finite)


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        return f"{value:.6g}"
    return str(value)


def _federation_model(federation: Any,
                      elapsed_s: Optional[float]) -> Dict[str, Any]:
    """JSON-serializable cluster panel from a live Federation (a
    pre-built mapping passes through untouched)."""
    if isinstance(federation, Mapping):
        return dict(federation)
    scraper = federation.scraper
    nodes = []
    for endpoint, _source in scraper.targets:
        have = scraper.latest.get(endpoint)
        doc, arrival = have if have is not None else (None, None)
        nodes.append({
            "endpoint": endpoint,
            "scraped": have is not None,
            "version": scraper._versions.get(endpoint, 0),
            "arrival_s": arrival,
            "state": (doc.get("fed", {}).get("state", "?")
                      if doc is not None else "never"),
        })
    histograms = []
    if federation.merged is not None:
        doc = metrics_snapshot(federation.merged)
        histograms = [row for row in doc["metrics"]["histograms"]
                      if row.get("count")]
        for row in histograms:  # sketches are for merging, not reading
            row.pop("sketch", None)
    return {
        "targets": len(scraper.targets),
        "scrapes": scraper.scrapes,
        "misses": scraper.misses,
        "merges": federation.merges,
        "utilization": (scraper.scrape_utilization(elapsed_s)
                        if elapsed_s else None),
        "nodes": nodes,
        "histograms": histograms,
    }


def _tsdb_model(store: Any) -> Dict[str, Any]:
    """JSON-serializable time-series panel (mapping passes through)."""
    if isinstance(store, Mapping):
        return dict(store)

    def _scalar(point: Any) -> Optional[float]:
        value = point.value
        if hasattr(value, "percentile"):  # sketch point: sparkline p99
            return value.percentile(99)
        try:
            return float(value)
        except (TypeError, ValueError):
            return None

    series = []
    for name in store.series_names():
        points = store.range(name)
        values = [v for v in (_scalar(p) for p in points[-_TSDB_SPARK_POINTS:])
                  if v is not None]
        series.append({
            "name": name,
            "kind": points[-1].kind if points else "-",
            "points": len(points),
            "downsampled": sum(1 for p in points if p.span > 1
                               or p.kind == "rate"),
            "latest": values[-1] if values else None,
            "values": values,
        })
    return {"retention_points": store.retention_points,
            "downsample_ratio": store.downsample_ratio,
            "series": series}


def build_dashboard(registry: Optional[MetricsRegistry] = None,
                    collector: Optional[TraceCollector] = None,
                    snapshot: Optional[Mapping] = None,
                    journal: Optional[Journal] = None,
                    journal_events: Optional[Sequence[Mapping]] = None,
                    slo_statuses: Sequence[Any] = (),
                    alerts: Sequence[Any] = (),
                    drift_statuses: Sequence[Any] = (),
                    checks: Optional[Mapping[str, bool]] = None,
                    bench_root: Union[str, os.PathLike, None] = None,
                    flight: Any = None,
                    federation: Any = None,
                    federation_elapsed_s: Optional[float] = None,
                    tsdb: Any = None,
                    tail_rows: int = DEFAULT_TAIL_ROWS) -> Dict[str, Any]:
    """Assemble the dashboard model from whichever sources exist.

    Pass either a live ``registry`` (+ optional ``collector``) or an
    already-written ``snapshot`` dict; either a live ``journal`` or
    decoded ``journal_events``; health results as the
    ``as_dict()``-able objects the health layer returns (or plain
    dicts).  ``bench_root`` pulls ``BENCH_*.json`` + history through
    :mod:`repro.obs.benchguard`.  ``flight`` is a live
    :class:`~repro.obs.attrib.FlightRecorder`, its ``snapshot()``
    dict, or a plain list of trace dicts (e.g. a flight-dump JSONL
    replayed from disk) — rendered as slow-trace waterfalls.
    ``federation`` is a live :class:`~repro.obs.fed.Federation` (pass
    ``federation_elapsed_s`` — virtual seconds the scrape traffic had
    to spread over — to report the overhead fraction) and ``tsdb`` a
    live or re-opened :class:`~repro.obs.tsdb.TimeSeriesStore`; both
    also accept already-built model dicts.
    """
    if snapshot is None and registry is not None:
        snapshot = metrics_snapshot(registry, collector)
    events: List[Dict[str, Any]] = []
    if journal_events is not None:
        events = [dict(e) for e in journal_events]
    elif journal is not None:
        events = [e.as_dict() for e in journal.tail()]
    elif get_journal().enabled:
        events = [e.as_dict() for e in get_journal().tail()]

    def _dictify(items: Sequence[Any]) -> List[Dict[str, Any]]:
        return [item.as_dict() if hasattr(item, "as_dict") else dict(item)
                for item in items]

    bench: Dict[str, Any] = {}
    if bench_root is not None:
        from repro.obs import benchguard  # deferred: avoid import cycle

        docs = benchguard.load_bench_files(bench_root)
        history = benchguard.load_history(
            Path(bench_root) / benchguard.DEFAULT_HISTORY_NAME)
        trajectory = benchguard.metric_trajectories(history)
        for name, doc in sorted(docs.items()):
            for metric, value, direction in benchguard.extract_metrics(doc):
                series = trajectory.get(f"{name}.{metric}", [])
                bench[f"{name}.{metric}"] = {
                    "current": value,
                    "direction": direction,
                    "history": series,
                }
    flight_model: Optional[Dict[str, Any]] = None
    if flight is not None:
        if hasattr(flight, "snapshot"):
            flight_model = flight.snapshot()
        elif isinstance(flight, Mapping):
            flight_model = dict(flight)
        else:  # a replayed flight-dump JSONL: every line is one trace
            traces = [dict(t) for t in flight]
            flight_model = {
                "recorded": len(traces), "dumps": 0,
                "slowest": sorted(traces,
                                  key=lambda t: -t.get("wall_s", 0.0)),
                "errors": [t for t in traces
                           if t.get("status", "ok") != "ok"],
            }
    return {
        "generated_at": _now_iso(),
        "metrics": dict(snapshot) if snapshot is not None else None,
        "journal_tail": events[-tail_rows:],
        "journal_events_total": (journal.events if journal is not None
                                 else len(events)),
        "slos": _dictify(slo_statuses),
        "alerts": _dictify(alerts),
        "drift": _dictify(drift_statuses),
        "checks": dict(checks) if checks else {},
        "bench": bench,
        "flight": flight_model,
        "federation": (_federation_model(federation, federation_elapsed_s)
                       if federation is not None else None),
        "tsdb": _tsdb_model(tsdb) if tsdb is not None else None,
    }


# -- terminal rendering ------------------------------------------------


def render_text(model: Mapping[str, Any]) -> str:
    """The dashboard as the repo's standard aligned-table report."""
    from repro.reporting import format_table  # deferred: keep obs light

    sections: List[str] = [f"health dashboard — {model['generated_at']}"]

    alerts = model.get("alerts") or []
    if alerts:
        sections.append(format_table(
            ["slo", "window", "severity", "burn", "threshold"],
            [[a["slo"], a["window"], a["severity"],
              _fmt(a["burn_rate"]), _fmt(a["threshold"])] for a in alerts],
            title=f"ACTIVE ALERTS ({len(alerts)})"))
    else:
        sections.append("alerts: none active")

    slos = model.get("slos") or []
    if slos:
        sections.append(format_table(
            ["slo", "objective", "fast burn", "slow burn", "state"],
            [[s["name"], _fmt(s["objective"]), _fmt(s["fast_burn"]),
              _fmt(s["slow_burn"]),
              "ALERTING" if s["alerting"] else "ok"] for s in slos],
            title="SLO burn rates"))

    drift = model.get("drift") or []
    if drift:
        sections.append(format_table(
            ["scheme", "balance", "band max", "concentration", "band max",
             "state"],
            [[d["scheme"], _fmt(d["balance"]), _fmt(d["balance_max"]),
              _fmt(d["concentration"]), _fmt(d["concentration_max"]),
              "ok" if d["ok"] else "DRIFT"] for d in drift],
            title="hash-quality drift (Eq. 1 / Eq. 2 bands)"))

    checks = model.get("checks") or {}
    if checks:
        held = sum(bool(v) for v in checks.values())
        sections.append(format_table(
            ["check", "verdict"],
            [[name, "ok" if ok else "FAIL"]
             for name, ok in sorted(checks.items())],
            title=f"checks ({held}/{len(checks)} hold)"))

    bench = model.get("bench") or {}
    if bench:
        rows = []
        for name, cell in sorted(bench.items()):
            history = cell.get("history") or []
            rows.append([name, _fmt(cell.get("current")),
                         cell.get("direction", "-"),
                         _spark(history) or "-", str(len(history))])
        sections.append(format_table(
            ["bench metric", "current", "better", "trend", "runs"],
            rows, title="bench trajectory (BENCH_*.json + history)"))

    fed = model.get("federation") or {}
    if fed:
        rows = [[n["endpoint"], n["state"],
                 str(n["version"]) if n["version"] else "-",
                 _fmt(n["arrival_s"]),
                 "ok" if n["scraped"] else "NEVER SCRAPED"]
                for n in fed.get("nodes") or []]
        util = fed.get("utilization")
        sections.append(format_table(
            ["node", "state", "version", "last scrape t(s)", "scraped"],
            rows,
            title=(f"metrics federation — {fed.get('targets', 0)} targets, "
                   f"{fed.get('scrapes', 0)} scrapes, "
                   f"{fed.get('misses', 0)} misses, "
                   f"{fed.get('merges', 0)} merges"
                   + (f", scrape overhead {util:.2%} of worst link"
                      if util is not None else ""))))
        hist_rows = [[h["name"],
                      ", ".join(f"{k}={v}" for k, v
                                in sorted(h["labels"].items())) or "-",
                      str(h["count"]), _fmt(h["p50"]), _fmt(h["p99"]),
                      _fmt(h["max"])]
                     for h in fed.get("histograms") or []]
        if hist_rows:
            sections.append(format_table(
                ["merged series", "labels", "count", "p50", "p99", "max"],
                hist_rows, title="cluster-wide merged quantiles"))

    tsdb = model.get("tsdb") or {}
    if tsdb:
        rows = [[s["name"], s["kind"], str(s["points"]),
                 str(s["downsampled"]), _fmt(s.get("latest")),
                 _spark(s.get("values") or []) or "-"]
                for s in tsdb.get("series") or []]
        sections.append(format_table(
            ["series", "kind", "points", "aged", "latest", "spark"],
            rows,
            title=(f"time series — retention "
                   f"{tsdb.get('retention_points', '-')} raw points, "
                   f"{tsdb.get('downsample_ratio', '-')}:1 downsample")))

    flight = model.get("flight") or {}
    slowest = flight.get("slowest") or []
    if slowest:
        rows = []
        for t in slowest:
            stages = t.get("stages") or []
            breakdown = " ".join(
                f"{s['name']}={s['duration_s'] * 1e3:.2f}ms"
                for s in stages) or "-"
            rows.append([t.get("trace_id", "-"), t.get("op", "-"),
                         t.get("scheme") or "-", t.get("status", "-"),
                         f"{t.get('wall_s', 0.0) * 1e3:.2f}",
                         _fmt(t.get("coverage")), breakdown])
        sections.append(format_table(
            ["trace", "op", "scheme", "status", "wall (ms)", "coverage",
             "stages"],
            rows,
            title=(f"flight recorder — slowest traces "
                   f"({len(slowest)} retained, "
                   f"{flight.get('recorded', len(slowest))} recorded, "
                   f"{len(flight.get('errors') or [])} errors)")))

    events = model.get("journal_tail") or []
    if events:
        rows = [[str(e["seq"]), f"{e['mono_s']:.3f}", e["kind"],
                 ", ".join(f"{k}={_fmt(v)}"
                           for k, v in sorted(e["fields"].items())) or "-"]
                for e in events]
        sections.append(format_table(
            ["seq", "t(s)", "event", "fields"], rows,
            title=f"journal tail ({len(events)} of "
                  f"{model.get('journal_events_total', len(events))} events)"))

    metrics = model.get("metrics")
    if metrics:
        counts = {kind: len(metrics["metrics"][kind])
                  for kind in ("counters", "gauges", "histograms")}
        sections.append(
            f"metrics snapshot: {counts['counters']} counters, "
            f"{counts['gauges']} gauges, {counts['histograms']} histograms, "
            f"{len(metrics.get('spans', []))} spans")
    return "\n\n".join(sections)


# -- HTML rendering ----------------------------------------------------

_CSS = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       margin: 2rem; background: #fcfcfa; color: #1c1c1c; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: 0.5rem 0; }
th, td { border: 1px solid #d0d0c8; padding: 0.25rem 0.6rem;
         text-align: right; font-size: 0.85rem; }
th { background: #efefe8; } td:first-child, th:first-child
{ text-align: left; }
.ok { color: #166534; font-weight: bold; }
.bad { color: #b91c1c; font-weight: bold; }
.muted { color: #777; }
.spark { letter-spacing: 1px; }
.wf { margin: 0.4rem 0 1.2rem; max-width: 64rem; }
.wf-row { display: flex; align-items: center; font-size: 0.8rem;
          margin: 2px 0; }
.wf-label { width: 11rem; flex: none; text-align: right;
            padding-right: 0.6rem; color: #444; }
.wf-track { flex: 1; height: 0.9rem; background: #efefe8;
            display: block; }
.wf-bar { height: 100%; background: #2563eb; opacity: 0.85;
          display: block; }
.wf-bar-wall { background: #9ca3af; }
.wf-bar-err { background: #b91c1c; }
"""


def _h(value: Any) -> str:
    return html.escape(_fmt(value))


def _html_table(headers: Sequence[str],
                rows: Sequence[Sequence[str]]) -> List[str]:
    out = ["<table>", "<tr>" + "".join(f"<th>{html.escape(h)}</th>"
                                       for h in headers) + "</tr>"]
    for row in rows:
        out.append("<tr>" + "".join(f"<td>{cell}</td>" for cell in row)
                   + "</tr>")
    out.append("</table>")
    return out


def _verdict(ok: bool, good: str = "ok", bad: str = "FAIL") -> str:
    # The labels are data (alert severities, check names), not markup:
    # escape them, or a metric label like `scheme=<b>x` walks straight
    # into the document.
    label = html.escape(good if ok else bad)
    return (f'<span class="ok">{label}</span>' if ok
            else f'<span class="bad">{label}</span>')


#: Slow traces rendered as waterfalls on the HTML dashboard (the rest
#: stay in the JSONL dump; the panel is for reading, not archiving).
_WATERFALL_TRACES = 5


def _waterfall(trace: Mapping[str, Any]) -> List[str]:
    """One trace as an inline-CSS stage waterfall (no scripts/assets)."""
    wall_s = float(trace.get("wall_s") or 0.0)
    wall_ms = wall_s * 1e3
    coverage = trace.get("coverage")
    status = str(trace.get("status", "ok"))
    title = (f"{trace.get('trace_id', '?')} — op={trace.get('op', '?')}"
             f" scheme={trace.get('scheme') or '-'}"
             f" status={status} wall={wall_ms:.2f}ms"
             + (f" coverage={coverage:.0%}"
                if isinstance(coverage, (int, float)) else ""))
    out = [f"<h3>{html.escape(title)}</h3>", '<div class="wf">']
    out.append(
        '<div class="wf-row"><span class="wf-label">wall</span>'
        '<span class="wf-track"><span class="wf-bar wf-bar-wall" '
        f'style="width:100%"></span></span>'
        f'<span class="wf-label">{wall_ms:.2f}ms</span></div>')
    bar_class = "wf-bar" if status == "ok" else "wf-bar wf-bar-err"
    for stage in trace.get("stages") or []:
        start = float(stage.get("start_s") or 0.0)
        dur = float(stage.get("duration_s") or 0.0)
        if wall_s > 0:
            left = max(0.0, min(100.0, start / wall_s * 100.0))
            width = max(0.0, min(100.0 - left, dur / wall_s * 100.0))
        else:
            left, width = 0.0, 0.0
        out.append(
            '<div class="wf-row">'
            f'<span class="wf-label">{html.escape(stage.get("name", "?"))}'
            '</span><span class="wf-track">'
            f'<span class="{bar_class}" style="margin-left:{left:.1f}%;'
            f'width:{width:.1f}%;display:block"></span></span>'
            f'<span class="wf-label">{dur * 1e3:.2f}ms</span></div>')
    out.append("</div>")
    return out


def render_html(model: Mapping[str, Any]) -> str:
    """The dashboard as one self-contained HTML document."""
    parts: List[str] = [
        "<!DOCTYPE html>", "<html lang=\"en\"><head>",
        "<meta charset=\"utf-8\">",
        "<title>repro health dashboard</title>",
        f"<style>{_CSS}</style>", "</head><body>",
        f"<h1>repro health dashboard</h1>",
        f"<p class=\"muted\">generated {_h(model['generated_at'])} — "
        "prime-indexed store/serve health: SLO burn rates, hash-quality "
        "drift, journal, bench trajectory</p>",
    ]

    alerts = model.get("alerts") or []
    parts.append("<h2>Active alerts</h2>")
    if alerts:
        parts += _html_table(
            ["slo", "window", "severity", "burn rate", "threshold",
             "message"],
            [[_h(a["slo"]), _h(a["window"]),
              _verdict(False, bad=_fmt(a["severity"])),
              _h(a["burn_rate"]), _h(a["threshold"]), _h(a["message"])]
             for a in alerts])
    else:
        parts.append(f"<p>{_verdict(True, good='none active')}</p>")

    slos = model.get("slos") or []
    if slos:
        parts.append("<h2>SLO burn rates</h2>")
        parts += _html_table(
            ["slo", "objective", "fast burn", "slow burn", "state"],
            [[_h(s["name"]), _h(s["objective"]), _h(s["fast_burn"]),
              _h(s["slow_burn"]),
              _verdict(not s["alerting"], bad="ALERTING")] for s in slos])

    drift = model.get("drift") or []
    if drift:
        parts.append("<h2>Hash-quality drift (Eq. 1 balance / "
                     "Eq. 2 concentration)</h2>")
        parts += _html_table(
            ["scheme", "balance", "band max", "concentration", "band max",
             "state"],
            [[_h(d["scheme"]), _h(d["balance"]), _h(d["balance_max"]),
              _h(d["concentration"]), _h(d["concentration_max"]),
              _verdict(d["ok"], bad="DRIFT")] for d in drift])

    checks = model.get("checks") or {}
    if checks:
        held = sum(bool(v) for v in checks.values())
        parts.append(f"<h2>Checks ({held}/{len(checks)} hold)</h2>")
        parts += _html_table(
            ["check", "verdict"],
            [[_h(name), _verdict(bool(ok))]
             for name, ok in sorted(checks.items())])

    bench = model.get("bench") or {}
    if bench:
        parts.append("<h2>Bench trajectory</h2>")
        rows = []
        for name, cell in sorted(bench.items()):
            history = cell.get("history") or []
            rows.append([
                _h(name), _h(cell.get("current")),
                _h(cell.get("direction")),
                f'<span class="spark">{html.escape(_spark(history))}</span>'
                if _spark(history) else "-",
                _h(len(history)),
            ])
        parts += _html_table(
            ["bench metric", "current", "better", "trend", "runs"], rows)

    fed = model.get("federation") or {}
    if fed:
        util = fed.get("utilization")
        parts.append("<h2>Metrics federation</h2>")
        parts.append(
            f"<p class=\"muted\">{_h(fed.get('targets', 0))} targets, "
            f"{_h(fed.get('scrapes', 0))} scrapes, "
            f"{_h(fed.get('misses', 0))} misses, "
            f"{_h(fed.get('merges', 0))} merges"
            + (f", scrape overhead {util:.2%} of the busiest link"
               if util is not None else "") + "</p>")
        parts += _html_table(
            ["node", "state", "version", "last scrape t (s)", "scraped"],
            [[_h(n["endpoint"]), _h(n["state"]),
              _h(n["version"] or "-"), _h(n["arrival_s"]),
              _verdict(bool(n["scraped"]), bad="NEVER SCRAPED")]
             for n in fed.get("nodes") or []])
        hists = fed.get("histograms") or []
        if hists:
            parts.append("<h3>cluster-wide merged quantiles</h3>")
            parts += _html_table(
                ["merged series", "labels", "count", "p50", "p95", "p99",
                 "max"],
                [[_h(h["name"]),
                  _h(", ".join(f"{k}={v}" for k, v
                               in sorted(h["labels"].items())) or "-"),
                  _h(h["count"]), _h(h["p50"]), _h(h["p95"]), _h(h["p99"]),
                  _h(h["max"])] for h in hists])

    tsdb = model.get("tsdb") or {}
    if tsdb:
        parts.append("<h2>Time series</h2>")
        parts.append(
            f"<p class=\"muted\">retention "
            f"{_h(tsdb.get('retention_points'))} raw points per series, "
            f"{_h(tsdb.get('downsample_ratio'))}:1 downsample on "
            "age-out</p>")
        rows = []
        for s in tsdb.get("series") or []:
            spark = _spark(s.get("values") or [])
            rows.append([
                _h(s["name"]), _h(s["kind"]), _h(s["points"]),
                _h(s["downsampled"]), _h(s.get("latest")),
                (f'<span class="spark">{html.escape(spark)}</span>'
                 if spark else "-"),
            ])
        parts += _html_table(
            ["series", "kind", "points", "aged", "latest", "spark"], rows)

    flight = model.get("flight") or {}
    slowest = flight.get("slowest") or []
    if slowest:
        n_err = len(flight.get("errors") or [])
        parts.append("<h2>Flight recorder — slow-trace waterfalls</h2>")
        parts.append(
            f"<p class=\"muted\">{len(slowest)} slow traces retained of "
            f"{_h(flight.get('recorded', len(slowest)))} recorded; "
            f"{n_err} error traces; {_h(flight.get('dumps', 0))} dumps. "
            "Bars are stage offsets/durations within each trace's "
            "measured wall time.</p>")
        for t in slowest[:_WATERFALL_TRACES]:
            parts += _waterfall(t)

    events = model.get("journal_tail") or []
    if events:
        parts.append(
            f"<h2>Journal tail ({len(events)} of "
            f"{_h(model.get('journal_events_total', len(events)))} "
            "events)</h2>")
        parts += _html_table(
            ["seq", "t (s)", "event", "fields"],
            [[_h(e["seq"]), _h(round(e["mono_s"], 3)), _h(e["kind"]),
              _h(", ".join(f"{k}={_fmt(v)}"
                           for k, v in sorted(e["fields"].items())) or "-")]
             for e in events])

    metrics = model.get("metrics")
    if metrics:
        parts.append("<h2>Metrics snapshot</h2>")
        for kind in ("counters", "gauges"):
            rows = [[_h(m["name"]),
                     _h(", ".join(f"{k}={v}" for k, v
                                  in sorted(m["labels"].items())) or "-"),
                     _h(m["value"])]
                    for m in metrics["metrics"][kind]]
            if rows:
                parts.append(f"<h3>{kind}</h3>")
                parts += _html_table(["name", "labels", "value"], rows)
        hist_rows = [[_h(m["name"]),
                      _h(", ".join(f"{k}={v}" for k, v
                                   in sorted(m["labels"].items())) or "-"),
                      _h(m["count"]), _h(m["mean"]), _h(m["p50"]),
                      _h(m["p95"]), _h(m["p99"]), _h(m["max"])]
                     for m in metrics["metrics"]["histograms"]]
        if hist_rows:
            parts.append("<h3>histograms (windowed percentiles)</h3>")
            parts += _html_table(
                ["name", "labels", "count", "mean", "p50", "p95", "p99",
                 "max"], hist_rows)

    parts.append("</body></html>")
    return "\n".join(parts)


def write_dashboard(path: Union[str, os.PathLike],
                    model: Mapping[str, Any]) -> Path:
    """Write the HTML dashboard to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_html(model))
    return path


def main(argv: Optional[List[str]] = None) -> None:
    import argparse

    parser = argparse.ArgumentParser(
        description="Render the health dashboard from files on disk.")
    parser.add_argument("--snapshot", default=None, metavar="PATH",
                        help="--metrics-out snapshot JSON")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="journal JSONL file (rotated segment included)")
    parser.add_argument("--bench-root", default=None, metavar="DIR",
                        help="directory holding BENCH_*.json + history")
    parser.add_argument("--flight", default=None, metavar="PATH",
                        help="flight-recorder dump JSONL (one trace per "
                             "line) rendered as slow-trace waterfalls")
    parser.add_argument("--tsdb", default=None, metavar="DIR",
                        help="persisted repro.obs.tsdb directory, "
                             "rendered as per-series sparklines")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write self-contained HTML here "
                             "(default: terminal rendering to stdout)")
    args = parser.parse_args(argv)
    snapshot = None
    if args.snapshot:
        snapshot = json.loads(Path(args.snapshot).read_text())
    events = None
    if args.journal:
        from repro.obs.journal import replay

        events = list(replay(args.journal, strict=False))
    flight = None
    if args.flight:
        flight = [json.loads(line) for line
                  in Path(args.flight).read_text().splitlines() if line]
    tsdb = None
    if args.tsdb:
        from repro.obs.tsdb import TimeSeriesStore

        tsdb = TimeSeriesStore.open(args.tsdb)
    model = build_dashboard(snapshot=snapshot, journal_events=events,
                            bench_root=args.bench_root, flight=flight,
                            tsdb=tsdb)
    if args.out:
        print(f"dashboard written to {write_dashboard(args.out, model)}")
    else:
        print(render_text(model))


if __name__ == "__main__":
    main()
