"""Unified health dashboard: one document for the whole system's state.

Collects the observability surfaces into a single *dashboard model* (a
JSON-serializable dict) and describes each of its panels once, as a
``(title, headers, rows)`` table.  Two renderers draw those tables:

* :func:`render_text` — the terminal dashboard, through the repo's
  standard :func:`~repro.reporting.format_table`;
* :func:`render_html` — one **self-contained** HTML file: inline CSS,
  no scripts, no fonts, no images, no external requests of any kind —
  it renders identically from a file:// open on an air-gapped box.
  Every cell is escaped, pass/fail verdicts are green or red, and the
  flight recorder's slowest traces are also drawn as stage waterfalls,
  the one HTML-only element.

The panels, each left out when its source is empty: active alerts,
SLO burn rates and hash-quality drift verdicts
(:mod:`repro.obs.health`); the run's checks; the bench trajectory
(``BENCH_*.json`` plus their :mod:`repro.obs.benchguard` history,
sparklined); the flight recorder's slowest traces; the journal tail
(:mod:`repro.obs.journal`); and the metrics snapshot, whose tables are
the ones :func:`repro.obs.sinks.metrics_table` prints.

CLI::

    python -m repro.obs.dash [--snapshot metrics.json] \\
        [--journal run.jsonl] [--bench-root .] [--flight dump.jsonl] \\
        [--out dash.html]

renders a dashboard from files on disk; ``python -m repro.experiments
<name> --dash PATH`` writes one from the live run, with its checks and
flight recorder.
"""

from __future__ import annotations

import html
import json
import math
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import (Any, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from repro.obs.attrib import TraceCollector
from repro.obs.journal import Journal, get_journal
from repro.obs.registry import MetricsRegistry
from repro.obs.sinks import metric_tables, metrics_snapshot

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

#: Slow traces rendered as waterfalls on the HTML dashboard (the rest
#: stay in the JSONL dump; the panel is for reading, not archiving).
_WATERFALL_TRACES = 5


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


def _dictify(items: Sequence[Any]) -> List[Dict[str, Any]]:
    return [item.as_dict() if hasattr(item, "as_dict") else dict(item)
            for item in items]


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
                    flight: Any = None) -> Dict[str, Any]:
    """Assemble the dashboard model from whichever sources exist.

    Pass either a live ``registry`` (+ optional ``collector``) or an
    already-written ``snapshot`` dict; either a live ``journal`` or
    decoded ``journal_events`` (with neither, the process journal when
    it is enabled); health results as the ``as_dict()``-able objects
    the health layer returns (or plain dicts).  ``bench_root`` pulls
    ``BENCH_*.json`` + history through :mod:`repro.obs.benchguard`.
    ``flight`` is a live :class:`~repro.obs.attrib.FlightRecorder`,
    its ``snapshot()`` dict, or a plain list of trace dicts (e.g. a
    flight-dump JSONL replayed from disk).
    """
    if snapshot is None and registry is not None:
        snapshot = metrics_snapshot(registry, collector)
    if journal is None and journal_events is None and get_journal().enabled:
        journal = get_journal()
    if journal_events is None:
        journal_events = journal.tail() if journal is not None else ()
    events = _dictify(journal_events)

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
        "journal_tail": events[-DEFAULT_TAIL_ROWS:],
        "journal_events_total": (journal.events if journal is not None
                                 else len(events)),
        "slos": _dictify(slo_statuses),
        "alerts": _dictify(alerts),
        "drift": _dictify(drift_statuses),
        "checks": dict(checks) if checks else {},
        "bench": bench,
        "flight": flight_model,
    }


# -- the panels, described once ----------------------------------------


class _Verdict(NamedTuple):
    """A pass/fail table cell: its ``label`` in the terminal, green
    (``ok``) or red in HTML."""

    ok: bool
    label: str

    def __str__(self) -> str:
        return self.label


def _verdict(ok: bool, bad: str = "FAIL") -> _Verdict:
    return _Verdict(bool(ok), "ok" if ok else bad)


#: One panel: ``(title, headers, rows)``; cells are strings or verdicts.
_Table = Tuple[str, Sequence[str], List[List[Any]]]

#: The flight panel's headers; the HTML renderer draws the waterfalls
#: right after the table that carries them.
_FLIGHT_HEADERS = ("trace", "op", "scheme", "status", "wall (ms)",
                   "coverage", "stages")


def _tables(model: Mapping[str, Any]) -> List[_Table]:
    """Every non-empty panel of ``model``, in dashboard order."""
    tables: List[_Table] = []
    alerts = model.get("alerts") or []
    if alerts:
        tables.append((
            f"active alerts ({len(alerts)})",
            ("slo", "window", "severity", "burn rate", "threshold",
             "message"),
            [[a["slo"], a["window"], _Verdict(False, str(a["severity"])),
              _fmt(a["burn_rate"]), _fmt(a["threshold"]), a["message"]]
             for a in alerts]))
    slos = model.get("slos") or []
    if slos:
        tables.append((
            "SLO burn rates",
            ("slo", "objective", "fast burn", "slow burn", "state"),
            [[s["name"], _fmt(s["objective"]), _fmt(s["fast_burn"]),
              _fmt(s["slow_burn"]), _verdict(not s["alerting"], "ALERTING")]
             for s in slos]))
    drift = model.get("drift") or []
    if drift:
        tables.append((
            "hash-quality drift (Eq. 1 balance / Eq. 2 concentration "
            "bands)",
            ("scheme", "balance", "band max", "concentration", "band max",
             "state"),
            [[d["scheme"], _fmt(d["balance"]), _fmt(d["balance_max"]),
              _fmt(d["concentration"]), _fmt(d["concentration_max"]),
              _verdict(d["ok"], "DRIFT")] for d in drift]))
    checks = model.get("checks") or {}
    if checks:
        held = sum(bool(ok) for ok in checks.values())
        tables.append((
            f"checks ({held}/{len(checks)} hold)", ("check", "verdict"),
            [[name, _verdict(ok)] for name, ok in sorted(checks.items())]))
    bench = model.get("bench") or {}
    if bench:
        tables.append((
            "bench trajectory (BENCH_*.json + history)",
            ("bench metric", "current", "better", "trend", "runs"),
            [[name, _fmt(cell.get("current")), cell.get("direction", "-"),
              _spark(cell.get("history") or []) or "-",
              str(len(cell.get("history") or []))]
             for name, cell in sorted(bench.items())]))
    flight = model.get("flight") or {}
    slowest = flight.get("slowest") or []
    if slowest:
        tables.append((
            f"flight recorder — slowest traces ({len(slowest)} retained, "
            f"{flight.get('recorded', len(slowest))} recorded, "
            f"{len(flight.get('errors') or [])} errors, "
            f"{flight.get('dumps', 0)} dumps)",
            _FLIGHT_HEADERS,
            [[t.get("trace_id", "-"), t.get("op", "-"),
              t.get("scheme") or "-",
              _Verdict(t.get("status", "ok") == "ok",
                       str(t.get("status", "ok"))),
              f"{t.get('wall_s', 0.0) * 1e3:.2f}", _fmt(t.get("coverage")),
              " ".join(f"{s['name']}={s['duration_s'] * 1e3:.2f}ms"
                       for s in t.get("stages") or []) or "-"]
             for t in slowest]))
    events = model.get("journal_tail") or []
    if events:
        tables.append((
            f"journal tail ({len(events)} of "
            f"{model.get('journal_events_total', len(events))} events)",
            ("seq", "t(s)", "event", "fields"),
            [[str(e["seq"]), f"{e['mono_s']:.3f}", e["kind"],
              ", ".join(f"{k}={_fmt(v)}"
                        for k, v in sorted(e["fields"].items())) or "-"]
             for e in events]))
    metrics = model.get("metrics")
    if metrics:
        tables += [(f"metrics snapshot: {title}", headers, rows)
                   for title, headers, rows
                   in metric_tables(metrics["metrics"])]
    return tables


# -- terminal rendering ------------------------------------------------


def render_text(model: Mapping[str, Any]) -> str:
    """The dashboard as the repo's standard aligned-table report."""
    from repro.reporting import format_table  # deferred: keep obs light

    sections = [f"health dashboard — {model['generated_at']}"]
    if not model.get("alerts"):
        sections.append("alerts: none active")
    sections += [format_table(headers, rows, title=title)
                 for title, headers, rows in _tables(model)]
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


def _html_cell(value: Any) -> str:
    # Cells are data (check names, label values, messages), never
    # markup: escape every one, or a label like `scheme=<b>x` walks
    # straight into the document.
    if isinstance(value, _Verdict):
        return (f'<span class="{"ok" if value.ok else "bad"}">'
                f"{html.escape(value.label)}</span>")
    return html.escape(str(value))


def _html_table(title: str, headers: Sequence[str],
                rows: Sequence[Sequence[Any]]) -> List[str]:
    return [f"<h2>{html.escape(title)}</h2>", "<table>",
            "<tr>" + "".join(f"<th>{html.escape(h)}</th>"
                             for h in headers) + "</tr>",
            *("<tr>" + "".join(f"<td>{_html_cell(cell)}</td>"
                               for cell in row) + "</tr>" for row in rows),
            "</table>"]


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
        "<h1>repro health dashboard</h1>",
        f"<p class=\"muted\">generated "
        f"{html.escape(str(model['generated_at']))} — "
        "prime-indexed store/serve health: SLO burn rates, hash-quality "
        "drift, checks, flight recorder, journal, bench trajectory</p>",
    ]
    if not model.get("alerts"):
        parts.append(
            f"<p>alerts: {_html_cell(_Verdict(True, 'none active'))}</p>")
    for title, headers, rows in _tables(model):
        parts += _html_table(title, headers, rows)
        if headers is _FLIGHT_HEADERS:
            parts.append(
                "<p class=\"muted\">Bars are stage offsets/durations "
                "within each trace's measured wall time.</p>")
            for trace in model["flight"]["slowest"][:_WATERFALL_TRACES]:
                parts += _waterfall(trace)
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
    model = build_dashboard(snapshot=snapshot, journal_events=events,
                            bench_root=args.bench_root, flight=flight)
    if args.out:
        print(f"dashboard written to {write_dashboard(args.out, model)}")
    else:
        print(render_text(model))


if __name__ == "__main__":
    main()
