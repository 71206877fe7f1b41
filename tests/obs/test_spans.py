"""Spans on the trace collector: nesting, timing, threads, flat export,
rendering, and their separation from sampled request traces."""

import threading
import time

import pytest

from repro.obs import TraceCollector, get_collector, trace_span
from repro.obs.attrib import TRACE_CAPACITY


def _shape(rows):
    return [(r["name"], r["depth"], r["parent"]) for r in rows]


class TestNesting:
    def test_nested_spans_form_a_tree(self):
        collector = TraceCollector()
        with collector.span("outer"):
            with collector.span("inner_a"):
                pass
            with collector.span("inner_b"):
                pass
        assert _shape(collector.flat()) == [
            ("outer", 0, None), ("inner_a", 1, 0), ("inner_b", 1, 0)
        ]

    def test_nested_durations_are_ordered(self):
        collector = TraceCollector()
        with collector.span("outer"):
            with collector.span("inner"):
                time.sleep(0.01)
        root, inner = collector.flat()
        assert inner["duration_s"] >= 0.01
        assert root["duration_s"] >= inner["duration_s"]
        assert inner["start_s"] >= root["start_s"]

    def test_sequential_roots(self):
        collector = TraceCollector()
        with collector.span("first"):
            pass
        with collector.span("second"):
            pass
        assert _shape(collector.flat()) == [
            ("first", 0, None), ("second", 0, None)
        ]

    def test_exception_still_closes_span(self):
        collector = TraceCollector()
        with pytest.raises(RuntimeError):
            with collector.span("boom"):
                raise RuntimeError("x")
        assert collector.flat()[0]["duration_s"] is not None
        # the active span was reset: the next span is a fresh root
        with collector.span("after"):
            pass
        assert _shape(collector.flat()) == [
            ("boom", 0, None), ("after", 0, None)
        ]

    def test_exception_in_a_nested_span_unwinds_to_its_parent(self):
        collector = TraceCollector()
        with collector.span("outer"):
            with pytest.raises(RuntimeError):
                with collector.span("boom"):
                    raise RuntimeError("x")
            with collector.span("after"):
                pass
        assert _shape(collector.flat()) == [
            ("outer", 0, None), ("boom", 1, 0), ("after", 1, 0)
        ]


class TestThreads:
    def test_each_thread_gets_its_own_stack(self):
        collector = TraceCollector()

        def worker(tag):
            with collector.span("chunk", tag=tag):
                time.sleep(0.002)

        with collector.span("replay"):
            threads = [threading.Thread(target=worker, args=(i,),
                                        name=f"worker-{i}")
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # worker spans are *roots* of their own threads, not children
        # of the main thread's replay span
        rows = collector.flat()
        assert all(row["depth"] == 0 for row in rows)
        assert sorted(row["name"] for row in rows) == ["chunk"] * 4 + [
            "replay"]
        assert {row["thread"] for row in rows if row["name"] == "chunk"} \
            == {f"worker-{i}" for i in range(4)}


class TestExports:
    def test_flat_depth_and_parent_indices(self):
        collector = TraceCollector()
        with collector.span("a", k="v"):
            with collector.span("b"):
                with collector.span("c"):
                    pass
        rows = collector.flat()
        assert _shape(rows) == [("a", 0, None), ("b", 1, 0), ("c", 2, 1)]
        assert rows[0]["labels"] == {"k": "v"}
        assert all(r["duration_s"] >= 0 for r in rows)
        assert all(r["thread"] == threading.current_thread().name
                   for r in rows)

    def test_labels_may_reuse_trace_field_names(self):
        collector = TraceCollector()
        with collector.span("simulate", scheme="pmod", op="get"):
            pass
        assert collector.flat()[0]["labels"] == {"scheme": "pmod",
                                                 "op": "get"}

    def test_render_tree_shows_names_and_labels(self):
        collector = TraceCollector()
        with collector.span("experiment", experiment="demo"):
            with collector.span("simulate", workload="tree"):
                pass
            with collector.span("simulate", workload="mcf"):
                pass
        lines = collector.render().splitlines()
        assert lines[0].startswith("experiment experiment=demo")
        assert lines[1].startswith("|- simulate workload=tree")
        assert lines[2].startswith("`- simulate workload=mcf")
        assert all(line.endswith(" ms") for line in lines)

    def test_render_empty(self):
        assert TraceCollector().render() == "(no spans recorded)"

    def test_clear_resets(self):
        collector = TraceCollector()
        with collector.span("a"):
            pass
        collector.clear()
        assert collector.flat() == []


class TestRequestTraces:
    """The span roots and sampled request traces share one collector: both
    export, but only request traces are analyzed or flight-recorded."""

    @staticmethod
    def _request(collector):
        ctx = collector.begin("get", scheme="pmod", key="k")
        ctx.stage("route", ctx.start_s, 0.0, replicas=2)
        return collector.finish(ctx)

    def test_request_traces_export_in_start_order(self):
        collector = TraceCollector()
        with collector.span("experiment", experiment="demo"):
            trace = self._request(collector)
        rows = collector.flat()
        assert _shape(rows) == [
            ("experiment", 0, None), ("trace.get", 0, None), ("route", 1, 1)
        ]
        assert rows[1]["labels"] == {"trace_id": trace.trace_id,
                                     "scheme": "pmod", "status": "ok"}
        assert rows[2]["labels"] == {"replicas": 2}

    def test_span_roots_never_reach_analyze_or_the_flight_recorder(self):
        collector = TraceCollector()
        with collector.span("experiment"):
            with collector.span("simulate"):
                pass
        assert collector.traces() == []
        assert len(collector) == 0
        assert collector.analyze()["n_traces"] == 0
        assert collector.flight.recorded == 0

    def test_span_roots_never_evict_a_request_trace(self):
        collector = TraceCollector()
        kept = [self._request(collector).trace_id
                for _ in range(TRACE_CAPACITY)]
        for _ in range(5):
            with collector.span("simulate"):
                pass
        assert [t.trace_id for t in collector.traces()] == kept
        names = [row["name"] for row in collector.flat()
                 if row["depth"] == 0]
        assert names == ["trace.get"] * TRACE_CAPACITY + ["simulate"] * 5


class TestDisabled:
    def test_disabled_tracer_records_nothing(self):
        collector = TraceCollector(enabled=False)
        with collector.span("invisible"):
            pass
        assert collector.flat() == []

    def test_global_trace_span_is_noop_by_default(self):
        assert get_collector().enabled is False
        before = len(get_collector().flat())
        with trace_span("invisible"):
            pass
        assert len(get_collector().flat()) == before
        # the off path hands back one shared no-op context
        assert trace_span("a") is trace_span("b", k="v")
