"""End-to-end: the shared CLI's --metrics-out / --trace surface."""

import json

from repro.experiments import cluster
from repro.experiments.__main__ import main
from repro.obs import validate_snapshot


def _run(tmp_path, capsys, *extra):
    metrics_path = tmp_path / "metrics.json"
    main([
        "store_sharding",
        "--metrics-out", str(metrics_path),
        "--cache-dir", str(tmp_path / "cache"),
        "--scale", "0.04",
        *extra,
    ])
    capsys.readouterr()
    return metrics_path


class TestMetricsOut:
    def test_snapshot_validates_and_has_engine_cache_counters(
            self, tmp_path, capsys):
        metrics_path = _run(tmp_path, capsys)
        snapshot = json.loads(metrics_path.read_text())
        validate_snapshot(snapshot)

        counters = {c["name"]: c["value"]
                    for c in snapshot["metrics"]["counters"]}
        # engine cache counters are always present (declared at enable);
        # the cold store_sharding run actually missed and wrote entries
        for name in ("engine.cache.hits", "engine.cache.misses",
                     "engine.cache.writes", "engine.cache.corrupt"):
            assert name in counters
        assert counters["engine.cache.misses"] > 0
        assert counters["engine.cache.writes"] > 0

        # the store layer reported per-shard series and quality gauges
        histograms = snapshot["metrics"]["histograms"]
        assert any(h["name"] == "store.shard.latency_s" for h in histograms)
        assert any(h["name"] == "store.op.latency_s" for h in histograms)
        gauges = {g["name"] for g in snapshot["metrics"]["gauges"]}
        assert "store.balance" in gauges
        assert "store.shard.occupancy" in gauges

        # the run traced: one experiment root with replay children
        spans = snapshot["spans"]
        assert spans[0]["name"] == "experiment"
        assert spans[0]["parent"] is None
        assert any(s["name"] == "replay" and s["parent"] == 0
                   for s in spans)

    def test_warm_cache_run_reports_hits(self, tmp_path, capsys):
        _run(tmp_path, capsys)
        metrics_path = _run(tmp_path, capsys)  # same cache dir: all hits
        snapshot = json.loads(metrics_path.read_text())
        validate_snapshot(snapshot)
        counters = {c["name"]: c["value"]
                    for c in snapshot["metrics"]["counters"]}
        assert counters["engine.cache.hits"] > 0
        assert counters["engine.cache.writes"] == 0

    def test_trace_flag_prints_span_tree(self, tmp_path, capsys):
        main([
            "store_sharding",
            "--trace",
            "--scale", "0.02",
        ])
        out = capsys.readouterr().out
        assert "experiment experiment=store_sharding" in out
        assert "replay scheme=" in out
        assert "ms" in out

    def test_without_flags_observability_stays_off(self, tmp_path, capsys):
        from repro.obs import get_registry

        main(["store_sharding", "--scale", "0.02"])
        capsys.readouterr()
        assert get_registry().enabled is False
        assert len(get_registry()) == 0


class TestClusterTraces:
    def test_snapshot_carries_the_sampled_request_traces(
            self, tmp_path, capsys, monkeypatch):
        """The cluster's sampled op traces export beside the experiment
        span: each a root after ``experiment``, with its stage rows."""
        monkeypatch.setattr(cluster, "DEFAULT_STACKS", ("pmod+pmod",))
        metrics_path = tmp_path / "metrics.json"
        main(["cluster", "--scale", "0.05",
              "--metrics-out", str(metrics_path)])
        capsys.readouterr()
        snapshot = json.loads(metrics_path.read_text())
        validate_snapshot(snapshot)
        spans = snapshot["spans"]
        assert spans[0]["name"] == "experiment"
        assert spans[0]["parent"] is None
        roots = [index for index, span in enumerate(spans)
                 if span["name"] in ("trace.get", "trace.put")]
        assert roots
        for index in roots:
            root = spans[index]
            assert root["parent"] is None
            assert root["labels"]["scheme"] == "pmod+pmod"
            assert [s["name"] for s in spans if s["parent"] == index] == [
                "route", "contact", "settle"]
