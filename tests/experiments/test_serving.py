"""The serving experiment: measurement, checks, CLI, metrics snapshot."""

import json

import pytest

from repro.engine import all_experiment_names, validate_artifact
from repro.experiments import serving
from repro.experiments.__main__ import main
from repro.obs import validate_snapshot

#: 600 requests per scheme.
FAST = ["--scale", "0.24"]


@pytest.fixture
def only(monkeypatch):
    """Serve only the given schemes in this test's CLI runs."""
    def schemes(*names):
        monkeypatch.setattr(serving, "DEFAULT_SCHEMES", names)
    return schemes


class TestMeasure:
    def test_single_cell_payload_shape(self):
        payload = serving.measure("pmod", 400, seed=0)
        assert payload["scheme"] == "pmod"
        assert payload["n_requests"] == 400
        assert sum(payload["statuses"].values()) == 400
        for field in ("latency", "balance", "concentration",
                      "mean_batch_size", "peak_queue_depth"):
            assert field in payload
        assert payload["latency"]["p50"] <= payload["latency"]["p99"]
        assert json.loads(json.dumps(payload)) == payload

    def test_stalled_shard_cell_degrades_explicitly(self, monkeypatch):
        """The acceptance scenario through the experiment surface: one
        stalled shard yields explicit timeouts/rejects, full
        accounting, bounded queue — and the run terminates."""
        monkeypatch.setattr(serving, "MAX_QUEUE_DEPTH", 128)
        monkeypatch.setattr(serving, "TIMEOUT_S", 0.03)
        monkeypatch.setattr(serving, "STALL_S", 0.3)
        payload = serving.measure("pmod", 400, seed=0, stall_shard=0)
        statuses = payload["statuses"]
        assert sum(statuses.values()) == 400
        assert statuses.get("dropped", 0) == 0
        assert statuses.get("timeout", 0) + statuses.get("rejected", 0) > 0
        assert payload["peak_queue_depth"] <= 128
        assert payload["stalled_shard"] == 0

    def test_degradation_checks_cover_every_scheme(self):
        cells = {
            "pmod": {"statuses": {"ok": 10}, "n_requests": 10,
                     "peak_queue_depth": 5},
            "xor": {"statuses": {"ok": 8, "timeout": 2}, "n_requests": 10,
                    "peak_queue_depth": 5},
        }
        checks = serving.degradation_checks(cells, max_queue_depth=8,
                                            stalled=True)
        assert checks["pmod_all_accounted"]
        assert checks["xor_stall_surfaces_explicitly"]
        assert not checks["pmod_stall_surfaces_explicitly"]
        assert len(checks) == 8

    def test_traced_checks_grade_every_scheme_coverage(self):
        cell = {"statuses": {"ok": 10}, "n_requests": 10,
                "peak_queue_depth": 5}
        cells = {
            "pmod": {**cell, "attribution": {"n_traces": 4,
                                             "coverage": 0.95}},
            "xor": {**cell, "attribution": {"n_traces": 4,
                                            "coverage": 0.5}},
            "traditional": cell,
        }
        checks = serving.degradation_checks(cells, max_queue_depth=8,
                                            stalled=False, traced=True)
        assert checks["pmod_stage_coverage"] is True
        assert checks["xor_stage_coverage"] is False
        assert checks["traditional_stage_coverage"] is False


class TestRender:
    def test_render_has_table_chart_and_verdict(self):
        cells = {
            scheme: serving.measure(scheme, 300, seed=0)
            for scheme in ("traditional", "pmod")
        }
        out = serving.render({
            "n_requests": 300, "pattern": "zipfian", "arrival": "bursty",
            "rate_rps": 12000.0, "n_shards": 32, "stall_shard": None,
            "schemes": cells,
            "checks": serving.degradation_checks(cells, 512, stalled=False),
        })
        assert "p99 ms" in out
        assert "p99 latency (ms) per scheme" in out
        assert "Serving contract" in out
        assert "traditional" in out and "pmod" in out


class TestCli:
    def test_registered(self):
        assert "serving" in all_experiment_names()

    def test_artifact_written_with_checks(self, tmp_path, capsys):
        path = tmp_path / "serving.json"
        main(["serving", "--artifact", str(path), *FAST])
        artifact = json.loads(path.read_text())
        validate_artifact(artifact)
        assert artifact["experiment"] == "serving"
        data = artifact["data"]
        assert set(data["schemes"]) == set(serving.DEFAULT_SCHEMES)
        for cell in data["schemes"].values():
            assert sum(cell["statuses"].values()) == cell["n_requests"]
        assert all(data["checks"].values()), data["checks"]
        out = capsys.readouterr().out
        assert "Serving" in out
        assert "p99" in out

    def test_stall_param_flows_into_checks(self, tmp_path, capsys, only):
        only("pmod")
        path = tmp_path / "stalled.json"
        main(["serving", "--artifact", str(path), *FAST,
              "--param", "stall_shard=0"])
        capsys.readouterr()
        data = json.loads(path.read_text())["data"]
        assert data["stall_shard"] == 0
        assert "pmod_stall_surfaces_explicitly" in data["checks"]
        assert data["checks"]["pmod_no_silent_drops"]
        assert data["checks"]["pmod_queue_bounded"]

    def test_metrics_out_snapshot_carries_serve_series(self, tmp_path,
                                                       capsys, only):
        only("pmod", "traditional")
        metrics_path = tmp_path / "metrics.json"
        main(["serving", "--metrics-out", str(metrics_path), *FAST])
        capsys.readouterr()
        snapshot = json.loads(metrics_path.read_text())
        validate_snapshot(snapshot)
        counters = snapshot["metrics"]["counters"]
        served = [c for c in counters if c["name"] == "serve.requests"
                  and c["labels"].get("scheme") == "pmod"
                  and c["value"] > 0]
        assert served, "serve.requests{scheme=pmod} never incremented"
        hists = snapshot["metrics"]["histograms"]
        assert any(h["name"] == "serve.latency_s" and h["count"] > 0
                   for h in hists)

    def test_traced_check_after_an_untraced_warm_cache(self, tmp_path,
                                                       capsys, only):
        """A traced run must not reuse the untraced run's cached cells
        (they carry no attribution): it measures its own, publishes
        every stage-coverage check, and passes the gate."""
        only("pmod", "xor")
        args = ["serving", *FAST, "--cache-dir", str(tmp_path / "cache")]
        main(args)
        artifact_path = tmp_path / "traced.json"
        main([*args, "--trace", "--check",
              "--artifact", str(artifact_path)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "serving-check: ok"
        checks = json.loads(artifact_path.read_text())["data"]["checks"]
        assert checks["pmod_stage_coverage"]
        assert checks["xor_stage_coverage"]
        assert all(checks.values()), checks

    def test_payload_cache_round_trip(self, tmp_path, only):
        only("pmod")
        cache = tmp_path / "cache"
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = FAST
        main(["serving", "--artifact", str(a),
              "--cache-dir", str(cache), *args])
        assert list(cache.glob("*/*.payload.json"))
        main(["serving", "--artifact", str(b),
              "--cache-dir", str(cache), *args])
        assert (json.loads(a.read_text())["data"]
                == json.loads(b.read_text())["data"])
