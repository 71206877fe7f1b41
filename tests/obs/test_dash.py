"""The unified dashboard: model assembly, terminal and HTML rendering."""

import html
import json
import re

import pytest

from repro.obs import Journal, MetricsRegistry, set_journal
from repro.obs.attrib import FlightRecorder, Stage, Trace
from repro.obs.dash import (
    DEFAULT_TAIL_ROWS,
    build_dashboard,
    render_html,
    render_text,
    write_dashboard,
)
from repro.obs.dash import _WATERFALL_TRACES, _spark, main as dash_main
from repro.obs.health import (
    HashQualityDetector,
    SloEngine,
    default_slos,
    strict_bands,
)


def seeded_sources(tmp_path):
    """A live registry + journal + health results + bench root, with one
    drifting scheme and one hostile journal field."""
    registry = MetricsRegistry(enabled=True)
    journal = Journal(path=tmp_path / "events.jsonl")
    registry.counter("serve.requests").inc(10)
    registry.gauge("store.balance", scheme="pmod").set(1.0)
    registry.histogram("serve.latency_s").observe(0.003)
    journal.emit("serve.fault.stall", queue_id=3, stall_s=0.25)
    journal.emit("odd.payload", note="<script>alert(1)</script>")

    engine = SloEngine(default_slos(), registry=registry, journal=journal)
    statuses = engine.evaluate()
    detector = HashQualityDetector(strict_bands(8), registry=registry,
                                   journal=journal)
    drift = [detector.grade("pmod", balance=1.0, concentration=0.5),
             detector.grade("traditional", balance=7.9, concentration=7.0)]

    bench_root = tmp_path / "bench"
    bench_root.mkdir()
    (bench_root / "BENCH_obs.json").write_text(json.dumps(
        {"bench": "obs_overhead", "disabled_s": 0.5}))
    (bench_root / "BENCH_history.json").write_text(json.dumps({
        "schema_version": 1,
        "entries": [
            {"recorded_at": "t0",
             "metrics": {"obs_overhead.disabled_s": 0.48}},
            {"recorded_at": "t1",
             "metrics": {"obs_overhead.disabled_s": 0.52}},
        ],
    }))
    model = build_dashboard(
        registry=registry, journal=journal, slo_statuses=statuses,
        alerts=engine.active_alerts(), drift_statuses=drift,
        checks={"healthy_phase_quiet": True, "drift_trips": False},
        bench_root=bench_root)
    return model


class TestModel:
    def test_sections_are_json_serializable(self, tmp_path):
        model = seeded_sources(tmp_path)
        json.dumps(model)  # must not raise
        assert model["metrics"] is not None
        assert model["journal_events_total"] == 3  # 2 manual + 1 drift trip
        assert [s["name"] for s in model["slos"]] == [
            spec.name for spec in default_slos()]
        assert {d["scheme"] for d in model["drift"]} == {
            "pmod", "traditional"}
        assert model["checks"] == {"healthy_phase_quiet": True,
                                   "drift_trips": False}

    def test_bench_section_carries_trajectory(self, tmp_path):
        model = seeded_sources(tmp_path)
        cell = model["bench"]["obs_overhead.disabled_s"]
        assert cell["current"] == 0.5
        assert cell["direction"] == "lower"
        assert cell["history"] == [0.48, 0.52]

    def test_tail_is_bounded_by_tail_rows(self, tmp_path):
        journal = Journal()
        n = DEFAULT_TAIL_ROWS + 10
        for i in range(n):
            journal.emit("k", i=i)
        model = build_dashboard(journal=journal)
        assert [e["fields"]["i"] for e in model["journal_tail"]] == list(
            range(10, n))
        assert model["journal_events_total"] == n

    def test_process_journal_counts_lifetime_events(self):
        journal = Journal()  # default tail keeps the last 2048
        set_journal(journal)
        for i in range(2100):
            journal.emit("experiment.start", experiment="x", seed=i)
        model = build_dashboard()
        assert len(model["journal_tail"]) == 40
        assert model["journal_events_total"] == 2100

    def test_journal_events_may_come_from_disk(self, tmp_path):
        events = [{"seq": 0, "mono_s": 0.1, "kind": "replayed",
                   "fields": {}, "ts_unix_s": 1.0, "schema_version": 1}]
        model = build_dashboard(journal_events=events)
        assert model["journal_tail"][0]["kind"] == "replayed"

    def test_empty_model_renders_both_ways(self):
        model = build_dashboard()
        assert "alerts: none active" in render_text(model)
        assert "<html" in render_html(model)


def _trace(i, wall_s, stage="store.get", status="ok"):
    return Trace(f"t{i:04d}", "get", "pmod", status, 0.0, wall_s,
                 (Stage("queue", 0.0, wall_s / 4),
                  Stage(stage, wall_s / 4, wall_s / 2)))


def _text_tables(text):
    """(title, headers) of every format_table in a text rendering."""
    lines = text.splitlines()
    return [(lines[i - 1],
             [cell.strip() for cell in lines[i + 1].strip("|").split("|")])
            for i, line in enumerate(lines)
            if line.startswith("+-") and not lines[i - 1].startswith("|")]


def _html_tables(page):
    """(title, headers) of every panel table in an HTML rendering."""
    return [(html.unescape(title),
             [html.unescape(h) for h in re.findall(r"<th>(.*?)</th>", row)])
            for title, row in re.findall(
                r"<h2>(.*?)</h2>\n<table>\n<tr>(.*?)</tr>", page)]


class TestPanels:
    def test_histogram_cells_from_an_observed_cluster(self):
        """A labeled histogram row's count, mean, p50, p95, p99 and max
        cells appear in both the text and the HTML metrics panel."""
        from repro.cluster import Cluster

        registry = MetricsRegistry(enabled=True)
        cluster = Cluster(n_nodes=4, node_scheme="pmod",
                          shard_scheme="pmod", registry=registry)
        for i in range(400):
            cluster.put(f"k{i}", i)
        model = build_dashboard(registry=registry)
        json.dumps(model)
        (row,) = [row for row in model["metrics"]["metrics"]["histograms"]
                  if row["name"] == "cluster.op.sim_latency_s"]
        assert row["labels"] == {"scheme": cluster.scheme}
        assert row["count"] == 400
        text_rows = [[cell.strip() for cell in line.strip("|").split("|")]
                     for line in render_text(model).splitlines()
                     if line.startswith("|")]
        html_rows = [[html.unescape(cell) for cell
                      in re.findall(r"<td>(.*?)</td>", tr)]
                     for tr in re.findall(r"<tr>(<td>.*?)</tr>",
                                          render_html(model))]
        cells = [row["name"], f"scheme={cluster.scheme}",
                 str(row["count"])] + [
            f"{row[field]:.6g}"
            for field in ("mean", "p50", "p95", "p99", "max")]
        assert cells in text_rows
        assert cells in html_rows

    def test_flight_waterfalls_are_bounded_and_slowest_first(self):
        recorder = FlightRecorder()
        for i in range(3 * _WATERFALL_TRACES):
            recorder.record(_trace(i, 1e-3 * (i + 1)))
        model = build_dashboard(flight=recorder)
        json.dumps(model)
        assert len(model["flight"]["slowest"]) == 3 * _WATERFALL_TRACES
        assert model["flight"]["recorded"] == 3 * _WATERFALL_TRACES
        page = render_html(model)
        assert page.count('<div class="wf">') == _WATERFALL_TRACES
        # Slowest first: the last recorded trace leads the waterfalls.
        assert f"t{3 * _WATERFALL_TRACES - 1:04d} — op=get" in page

    def test_prebuilt_mappings_pass_through(self):
        flight = {"recorded": 1, "dumps": 0, "errors": [],
                  "slowest": [_trace(0, 2e-3).as_dict()]}
        snapshot = {"metrics": {"counters": [], "gauges": [],
                                "histograms": []}, "spans": []}
        model = build_dashboard(flight=flight, snapshot=snapshot)
        assert model["flight"] == flight
        assert model["metrics"] == snapshot

    def test_panels_render_in_text_and_html(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record(_trace(0, 2e-3))
        recorder.record(_trace(1, 3e-3, status="error"))
        model = seeded_sources(tmp_path)
        model["flight"] = recorder.snapshot()
        model["alerts"] = [{"slo": "serve-p99-latency", "window": "fast",
                            "severity": "page", "burn_rate": 20.0,
                            "threshold": 14.4, "message": "burning"}]
        text_tables = _text_tables(render_text(model))
        assert [title for title, _ in text_tables][:7] == [
            "active alerts (1)", "SLO burn rates",
            "hash-quality drift (Eq. 1 balance / Eq. 2 concentration "
            "bands)", "checks (1/2 hold)",
            "bench trajectory (BENCH_*.json + history)",
            "flight recorder — slowest traces (2 retained, 2 recorded, "
            "1 errors, 0 dumps)",
            "journal tail (3 of 3 events)"]
        assert len(text_tables) == 9  # + the two metrics tables
        assert _html_tables(render_html(model)) == text_tables

    def test_absent_panels_stay_out_of_the_model(self):
        model = build_dashboard(registry=MetricsRegistry(enabled=True),
                                journal_events=[], checks={},
                                flight=FlightRecorder())
        assert model["checks"] == {}
        assert model["journal_tail"] == []
        assert model["flight"]["slowest"] == []
        assert model["metrics"]["metrics"] == {
            "counters": [], "gauges": [], "histograms": []}
        text = render_text(model)
        page = render_html(model)
        assert _text_tables(text) == [] and "+-" not in text
        assert "<table>" not in page and '<div class="wf">' not in page


class TestRenderText:
    def test_all_sections_present(self, tmp_path):
        text = render_text(seeded_sources(tmp_path))
        for needle in ("health dashboard", "SLO burn rates",
                       "hash-quality drift", "checks (1/2 hold)",
                       "bench trajectory", "journal tail",
                       "metrics snapshot"):
            assert needle in text
        assert "DRIFT" in text  # traditional out of the strict band
        assert "serve.fault.stall" in text


class TestRenderHtml:
    def test_self_contained_zero_external_assets(self, tmp_path):
        page = render_html(seeded_sources(tmp_path))
        assert page.startswith("<!DOCTYPE html>")
        for forbidden in ("<script", "http://", "https://", "src=",
                          "@import", "url("):
            assert forbidden not in page, forbidden
        assert "<style>" in page  # CSS is inline

    def test_journal_fields_are_escaped(self, tmp_path):
        page = render_html(seeded_sources(tmp_path))
        assert "<script>alert(1)</script>" not in page
        assert "&lt;script&gt;" in page

    def test_every_panel_escapes_its_cells(self):
        hostile = "<script>alert('x')</script>"
        registry = MetricsRegistry(enabled=True)
        registry.gauge("store.balance", scheme=hostile).set(1.0)
        model = build_dashboard(
            registry=registry, checks={hostile: False},
            drift_statuses=[{"scheme": hostile, "balance": 9.0,
                             "balance_max": 1.5, "concentration": 9.0,
                             "concentration_max": 2.0, "ok": False}],
            alerts=[{"slo": "serve-p99-latency", "window": "fast",
                     "severity": "page", "burn_rate": 20.0,
                     "threshold": 14.4, "message": hostile}],
            flight=[_trace(0, 2e-3, stage=hostile).as_dict()])
        model["bench"] = {hostile: {"current": 1.0, "direction": "higher",
                                    "history": [1.0, 2.0]}}
        page = render_html(model)
        assert hostile not in page and "<script" not in page
        escaped = html.escape(hostile)
        # check, label value, drift scheme, alert message, bench
        # metric, and the stage in the flight table and its waterfall
        assert page.count(escaped) >= 7

    def test_drift_and_checks_verdicts_rendered(self, tmp_path):
        page = render_html(seeded_sources(tmp_path))
        assert '<span class="bad">DRIFT</span>' in page
        assert '<span class="ok">ok</span>' in page
        assert "bench trajectory" in page


class TestSpark:
    def test_needs_two_finite_points(self):
        assert _spark([]) == ""
        assert _spark([1.0]) == ""
        assert _spark([1.0, float("nan")]) == ""

    def test_flat_series_renders_floor_glyphs(self):
        assert _spark([2.0, 2.0, 2.0]) == "▁▁▁"

    def test_rising_series_rises(self):
        bar = _spark([0.0, 0.5, 1.0])
        assert len(bar) == 3
        assert bar[0] < bar[-1]  # glyphs are ordered by codepoint


class TestWriteAndCli:
    def test_write_dashboard_creates_parents(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "dash.html"
        written = write_dashboard(out, build_dashboard())
        assert written == out
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_cli_renders_files_from_disk(self, tmp_path, capsys):
        journal = Journal(path=tmp_path / "run.jsonl")
        journal.emit("cli.smoke", n=1)
        out = tmp_path / "dash.html"
        dash_main(["--journal", str(tmp_path / "run.jsonl"),
                   "--out", str(out)])
        assert "dashboard written to" in capsys.readouterr().out
        assert "cli.smoke" in out.read_text()

    def test_cli_draws_a_dumped_flight_recorder(self, tmp_path, capsys):
        recorder = FlightRecorder()
        for i, wall_s in enumerate((1e-3, 4e-3, 2e-3)):
            recorder.record(_trace(i, wall_s, stage=f"stage{i}"))
        recorder.record(_trace(3, 3e-3, status="error"))
        dump = tmp_path / "flight.jsonl"
        recorder.dump(dump, reason="test")
        out = tmp_path / "dash.html"
        dash_main(["--flight", str(dump), "--out", str(out)])
        capsys.readouterr()
        page = out.read_text()
        # Slowest first, one waterfall per dumped trace, with its stages.
        assert re.findall(r"<h3>(t\d+) — op=get", page) == [
            "t0001", "t0003", "t0002", "t0000"]
        assert recorder.slowest()[0].trace_id == "t0001"
        assert ">stage1</span>" in page
        assert "4 retained, 4 recorded, 1 errors" in page

    def test_cli_defaults_to_terminal_rendering(self, tmp_path, capsys):
        snapshot_path = tmp_path / "metrics.json"
        registry = MetricsRegistry(enabled=True)
        registry.counter("serve.requests").inc(3)
        from repro.obs.sinks import metrics_snapshot

        snapshot_path.write_text(json.dumps(metrics_snapshot(registry)))
        dash_main(["--snapshot", str(snapshot_path)])
        assert "metrics snapshot" in capsys.readouterr().out
