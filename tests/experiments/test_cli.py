"""The uniform ``python -m repro.experiments`` CLI."""

import json

import pytest

from repro.engine import all_experiment_names, validate_artifact
from repro.experiments.__main__ import main, parse_params
from repro.obs import (
    Journal,
    disable_observability,
    enable_journal,
    enable_observability,
    get_collector,
    get_journal,
    get_registry,
    get_tracer,
    set_journal,
)


class TestParseParams:
    def test_json_values(self):
        assert parse_params(["workload=bt", "scale=0.5", "seeds=[1,2]"]) == {
            "workload": "bt", "scale": 0.5, "seeds": [1, 2],
        }

    def test_plain_strings_pass_through(self):
        assert parse_params(["policy=first-touch"]) == {
            "policy": "first-touch"
        }

    def test_missing_equals_rejected(self):
        with pytest.raises(SystemExit):
            parse_params(["workload"])


class TestMain:
    def test_list(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        for name in all_experiment_names():
            assert name in out

    def test_run_and_render(self, capsys):
        main(["fragmentation"])
        assert "Table 1" in capsys.readouterr().out

    def test_artifact_written(self, tmp_path, capsys):
        path = tmp_path / "frag.json"
        main(["fragmentation", "--artifact", str(path)])
        artifact = json.loads(path.read_text())
        validate_artifact(artifact)
        assert artifact["experiment"] == "fragmentation"
        assert "Table 1" in capsys.readouterr().out

    def test_param_forwarded(self, tmp_path):
        path = tmp_path / "frag.json"
        main(["fragmentation", "--artifact", str(path),
              "--param", "set_counts=[256,512]"])
        artifact = json.loads(path.read_text())
        assert len(artifact["data"]["rows"]) == 2
        assert artifact["config"]["params"] == {"set_counts": [256, 512]}


class TestObservabilityRestored:
    """``main`` hands the process-wide observability back as it found
    it, so a later run in the same process starts from a clean slate."""

    def test_flags_leave_observability_off(self, tmp_path, capsys):
        prior = get_journal()
        journal_path = tmp_path / "run.jsonl"
        main(["fragmentation", "--trace",
              "--metrics-out", str(tmp_path / "metrics.json"),
              "--journal", str(journal_path)])
        capsys.readouterr()
        assert not get_registry().enabled
        assert not get_tracer().enabled
        assert not get_collector().enabled
        assert get_journal() is prior
        assert not prior.enabled
        assert "experiment.finish" in journal_path.read_text()

    def test_failed_run_still_restores(self, tmp_path, monkeypatch):
        def explode(name, context):
            raise RuntimeError("experiment failed")

        monkeypatch.setattr("repro.experiments.__main__.run_experiment",
                            explode)
        prior = get_journal()
        with pytest.raises(RuntimeError, match="experiment failed"):
            main(["fragmentation", "--journal",
                  str(tmp_path / "run.jsonl")])
        assert not get_registry().enabled
        assert get_journal() is prior

    def test_enabled_observability_stays_enabled(self, tmp_path, capsys):
        enable_observability()
        journal = enable_journal()
        try:
            main(["fragmentation", "--metrics-out",
                  str(tmp_path / "metrics.json")])
            capsys.readouterr()
            assert get_registry().enabled
            assert get_tracer().enabled
            assert get_journal() is journal
            assert journal.enabled
        finally:
            disable_observability()
            get_registry().clear()
            get_tracer().clear()
            set_journal(Journal(enabled=False))
