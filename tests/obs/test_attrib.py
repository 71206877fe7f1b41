"""The attribution layer: trace contexts, the critical-path analyzer,
the flight recorder's bounded rings, heavy hitters, and the histogram
exemplars that link tail quantiles to concrete traces."""

import json
import threading

import pytest

from repro.obs import (
    Journal,
    enable_observability,
    get_journal,
    get_registry,
    set_journal,
)
from repro.obs.attrib import (
    FLIGHT_ERROR_CAPACITY,
    FLIGHT_SLOW_CAPACITY,
    CriticalPathAnalyzer,
    FlightRecorder,
    HeavyHitterTracker,
    Stage,
    Trace,
    TraceCollector,
    TraceContext,
    activate,
    current_trace,
)
from repro.obs.registry import DEFAULT_HISTOGRAM_WINDOW


def synthetic_trace(trace_id, wall_s, status="ok",
                    stage_fracs=(("queue", 0.6), ("store", 0.4))):
    """A finished trace whose stages tile ``wall_s`` by the given
    fractions (coverage = sum of fractions)."""
    stages, t = [], 0.0
    for name, frac in stage_fracs:
        stages.append(Stage(name=name, start_s=t,
                            duration_s=wall_s * frac))
        t += wall_s * frac
    return Trace(trace_id=trace_id, op="get", scheme="pmod",
                 status=status, start_s=0.0, wall_s=wall_s,
                 stages=tuple(stages))


class TestTraceContext:
    def test_stage_start_is_relative_to_trace_start(self):
        ctx = TraceContext("get", scheme="pmod")
        assert ctx.stage("queue", ctx.start_s + 0.010, 0.005, depth=3)
        trace = ctx.finish(wall_s=0.020)
        assert trace.stages[0].start_s == pytest.approx(0.010)
        assert trace.stages[0].duration_s == pytest.approx(0.005)
        assert trace.stages[0].detail == {"depth": 3}

    def test_finish_rejects_late_stage_appends(self):
        """A timed-out request's abandoned work item finishing later
        must not append to (and double-count in) the frozen trace."""
        ctx = TraceContext("get")
        ctx.stage("queue", ctx.start_s, 0.001)
        trace = ctx.finish(status="timeout", wall_s=0.002)
        assert ctx.stage("store", ctx.start_s, 0.5) is False
        assert [s.name for s in trace.stages] == ["queue"]
        # a second finish sees the same frozen stages
        assert [s.name for s in ctx.finish().stages] == ["queue"]

    def test_negative_durations_clamp_to_zero(self):
        ctx = TraceContext("get")
        ctx.stage("queue", ctx.start_s, -0.5)
        assert ctx.finish(wall_s=0.0).stages[0].duration_s == 0.0

    def test_activate_scopes_the_current_trace(self):
        assert current_trace() is None
        ctx = TraceContext("get")
        with activate(ctx):
            assert current_trace() is ctx
        assert current_trace() is None

    def test_activation_does_not_leak_across_threads(self):
        ctx = TraceContext("get")
        seen = []
        with activate(ctx):
            worker = threading.Thread(
                target=lambda: seen.append(current_trace()))
            worker.start()
            worker.join()
        assert seen == [None]


class TestCriticalPathAnalyzer:
    def test_decompose_shares_and_coverage(self):
        traces = [synthetic_trace(f"t{i}", 0.010) for i in range(10)]
        out = CriticalPathAnalyzer(traces).decompose()
        assert out["n_traces"] == 10
        assert out["coverage"] == pytest.approx(1.0)
        assert out["stages"]["queue"]["share"] == pytest.approx(0.6)
        assert out["stages"]["store"]["share"] == pytest.approx(0.4)

    def test_percentile_traces_are_concrete(self):
        """The p99 row names the actual slowest-rank trace, not an
        interpolated abstraction."""
        traces = [synthetic_trace(f"t{i:03d}", 0.001 * (i + 1))
                  for i in range(100)]
        out = CriticalPathAnalyzer(traces).decompose()
        p99 = out["percentiles"]["p99"]
        assert p99["trace_id"] in {"t098", "t099"}  # nearest-rank tail
        assert p99["wall_s"] >= 0.099
        assert out["percentiles"]["p50"]["wall_s"] < p99["wall_s"]

    def test_partial_stage_coverage_is_reported(self):
        traces = [synthetic_trace("t0", 0.010,
                                  stage_fracs=(("queue", 0.5),))]
        out = CriticalPathAnalyzer(traces).decompose()
        assert out["coverage"] == pytest.approx(0.5)


class TestFlightRecorderOverflow:
    def test_slow_ring_keeps_the_slowest_in_order(self):
        """Overflow ordering: with six more traces recorded than the
        ring holds, exactly the largest walls survive, slowest first."""
        recorder = FlightRecorder()
        n = FLIGHT_SLOW_CAPACITY + 6
        for i in range(n):
            recorder.record(synthetic_trace(f"t{i}", 0.001 * (i + 1)))
        assert recorder.recorded == n
        assert [t.trace_id for t in recorder.slowest()] == \
            [f"t{i}" for i in range(n - 1, 5, -1)]

    def test_slow_ring_breaks_wall_ties_by_arrival(self):
        recorder = FlightRecorder()
        for i in range(FLIGHT_SLOW_CAPACITY + 2):
            recorder.record(synthetic_trace(f"t{i}", 0.005))
        survivors = [t.trace_id for t in recorder.slowest()]
        # Equal walls never displace: the first arrivals stay.
        assert survivors == [f"t{i}" for i in range(FLIGHT_SLOW_CAPACITY)]

    def test_error_ring_evicts_oldest_first(self):
        recorder = FlightRecorder()
        for i in range(FLIGHT_ERROR_CAPACITY + 2):
            recorder.record(synthetic_trace(f"t{i}", 0.001,
                                            status="timeout"))
        assert [t.trace_id for t in recorder.errors()] == \
            [f"t{i}" for i in range(2, FLIGHT_ERROR_CAPACITY + 2)]

    def test_dump_journals_the_slowest_waterfall(self, tmp_path):
        enable_observability()
        set_journal(Journal())
        recorder = FlightRecorder()
        recorder.record(synthetic_trace("slow", 0.050))
        recorder.record(synthetic_trace("bad", 0.001, status="error"))
        path = tmp_path / "flight.jsonl"
        summary = recorder.dump(path, reason="slo:test:fast")

        assert summary["n_slow"] == 2 and summary["n_error"] == 1
        assert summary["n_traces"] == 2  # the error trace dedups
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert {row["trace_id"] for row in lines} == {"slow", "bad"}
        events = get_journal().find("obs.flight_dump")
        assert len(events) == 1
        slowest = events[0].fields["slowest"]
        assert slowest["trace_id"] == "slow"
        assert slowest["stages"]  # a complete waterfall rides along
        assert get_registry().counter("obs.flight_dumps").value == 1

    def test_clear_resets_the_dump_count(self):
        """A second drill in one process clears the recorder first, so
        its ``dumps`` must count only its own journaled dumps."""
        set_journal(Journal())
        recorder = FlightRecorder()
        recorder.record(synthetic_trace("slow", 0.050))
        recorder.dump(reason="first drill")
        recorder.clear()
        assert recorder.dumps == 0
        assert recorder.snapshot() == {"recorded": 0, "dumps": 0,
                                       "slowest": [], "errors": []}
        recorder.dump(reason="second drill")
        assert recorder.dumps == 1


class TestHeavyHitters:
    def test_top_orders_by_count_with_error_bounds(self):
        tracker = HeavyHitterTracker(k=2)
        for _ in range(5):
            tracker.offer("hot", where=3)
        tracker.offer("warm", where=1)
        tracker.offer("new", where=2)  # evicts "warm", inherits floor 1
        rows = tracker.top()
        assert rows[0] == {"key": "hot", "count": 5, "error": 0,
                           "where": 3}
        assert rows[1] == {"key": "new", "count": 2, "error": 1,
                           "where": 2}
        assert rows[1]["count"] - rows[1]["error"] == 1  # true lower bound

    def test_capacity_is_bounded(self):
        tracker = HeavyHitterTracker(k=4)
        for i in range(100):
            tracker.offer(f"k{i}")
        assert len(tracker) == 4
        assert tracker.offered == 100


class TestHistogramExemplars:
    def test_exemplar_evicts_with_its_observation(self):
        """Retention sync: an exemplar must leave the moment its
        observation ages out of the bounded window — a p99 link to a
        trace that no longer backs the quantile would lie."""
        enable_observability()
        set_journal(Journal())
        hist = get_registry().histogram("attrib.test.latency_s")
        hist.observe(0.9, exemplar="t-slowest")
        # A window's worth more observations: t-slowest ages out.
        for i in range(DEFAULT_HISTOGRAM_WINDOW):
            hist.observe(0.1 * (i + 1), exemplar=f"t{i}")
        retained = {row["trace_id"]
                    for row in hist.exemplars(n=DEFAULT_HISTOGRAM_WINDOW)}
        assert "t-slowest" not in retained
        assert retained == {f"t{i}" for i in range(DEFAULT_HISTOGRAM_WINDOW)}
        assert hist.exemplar_drops == 1

    def test_exemplars_rank_heaviest_first(self):
        enable_observability()
        hist = get_registry().histogram("attrib.test.rank_s")
        for i, value in enumerate([0.2, 0.9, 0.1]):
            hist.observe(value, exemplar=f"t{i}")
        hist.observe(0.5)  # no exemplar: must not surface as None
        top = hist.exemplars(n=2)
        assert [row["trace_id"] for row in top] == ["t1", "t0"]
        assert top[0] == {"value": 0.9, "trace_id": "t1"}

    def test_drop_event_is_edge_triggered(self):
        enable_observability()
        set_journal(Journal())
        hist = get_registry().histogram("attrib.test.drop_s")
        for i in range(DEFAULT_HISTOGRAM_WINDOW + 4):
            hist.observe(float(i), exemplar=f"t{i}")
        assert hist.exemplar_drops == 4
        assert len(get_journal().find("obs.exemplar_drop")) == 1


class TestTraceCollector:
    def test_disabled_begin_returns_none(self):
        collector = TraceCollector(enabled=False)
        assert collector.begin("get") is None
        assert collector.finish(None) is None
        assert len(collector) == 0

    def test_finish_lands_in_traces_and_flight(self):
        collector = TraceCollector(enabled=True)
        ctx = collector.begin("get", scheme="pmod")
        ctx.stage("store", ctx.start_s, 0.001)
        trace = collector.finish(ctx, status="timeout", wall_s=0.002)
        assert collector.traces(op="get") == [trace]
        assert collector.flight.errors() == [trace]
        analysis = collector.analyze(scheme="pmod")
        assert analysis["n_traces"] == 1
        assert analysis["coverage"] == pytest.approx(0.5)

    def test_clear_resets_flight_too(self):
        collector = TraceCollector(enabled=True)
        collector.finish(collector.begin("get"))
        collector.clear()
        assert len(collector) == 0
        assert collector.flight.recorded == 0
