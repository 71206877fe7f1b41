"""The uniform ``python -m repro.experiments`` CLI."""

import json

import pytest

from repro.engine import (
    ExperimentSpec,
    all_experiment_names,
    register,
    registry,
    validate_artifact,
)
from repro.experiments.__main__ import main, parse_params
from repro.obs import (
    Journal,
    disable_observability,
    enable_journal,
    enable_observability,
    get_collector,
    get_journal,
    get_registry,
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

    def test_package_main_lists_the_registry(self, capsys):
        from repro.__main__ import main as package_main
        package_main()
        out = capsys.readouterr().out
        listing = out.split("Registered experiments:\n", 1)[1]
        listed = {line.split()[0] for line in listing.splitlines()}
        assert set(all_experiment_names()) <= listed

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
            assert get_collector().enabled
            assert get_journal() is journal
            assert journal.enabled
        finally:
            disable_observability()
            get_registry().clear()
            get_collector().clear()
            set_journal(Journal(enabled=False))


@pytest.fixture
def toy(monkeypatch):
    """A millisecond experiment whose ``checks`` block is whatever
    ``--param checks=...`` says (no block when the param is absent),
    registered for one test only."""
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))

    def build(ctx):
        if "checks" not in ctx.params:
            return {}
        return {"checks": ctx.param("checks")}

    register(ExperimentSpec(name="toy", title="toy contract", build=build,
                            render=lambda artifact: "toy report",
                            uses_simulation=False))
    return "toy"


class TestCheck:
    """``--check``: the one gate over every experiment's contract."""

    def test_holding_contract_prints_ok_last(self, toy, capsys):
        main([toy, "--check", "--trace",
              "--param", 'checks={"a": true, "b": true}'])
        lines = capsys.readouterr().out.strip().splitlines()
        assert "toy report" in lines
        assert lines[-1] == "toy-check: ok"

    def test_broken_contract_exits_1_naming_every_false_check(
            self, toy, tmp_path, capsys):
        artifact_path = tmp_path / "toy.json"
        prior = get_journal()
        with pytest.raises(SystemExit) as exit_info:
            main([toy, "--check", "--artifact", str(artifact_path),
                  "--trace", "--journal", str(tmp_path / "run.jsonl"),
                  "--param", 'checks={"a": true, "b": false, "c": false}'])
        assert exit_info.value.code == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines()[-1] == (
            "toy-check: FAILED (b, c)")
        assert "toy-check: ok" not in captured.out
        data = json.loads(artifact_path.read_text())["data"]
        assert data["checks"] == {"a": True, "b": False, "c": False}
        assert not get_registry().enabled
        assert not get_collector().enabled
        assert get_journal() is prior

    def test_no_checks_block_is_refused(self, toy, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([toy, "--check"])
        message = exit_info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith("error: toy publishes no checks")

    def test_dash_shows_the_checks_and_the_flight_recorder(
            self, tmp_path, capsys):
        path = tmp_path / "dash.html"
        main(["health", "--scale", "0.1", "--check", "--dash", str(path)])
        assert capsys.readouterr().out.strip().splitlines()[-1] == (
            "health-check: ok")
        page = path.read_text()
        assert "<h2>checks (12/12 hold)</h2>" in page
        assert "<h2>flight recorder — slowest traces" in page
        assert '<div class="wf">' in page
        assert not get_registry().enabled

    def test_verdict_goes_to_stderr_when_the_artifact_is_stdout(
            self, toy, capsys):
        main([toy, "--check", "--artifact", "-",
              "--param", 'checks={"a": true}'])
        captured = capsys.readouterr()
        assert json.loads(captured.out)["data"]["checks"] == {"a": True}
        assert captured.err.strip().splitlines()[-1] == "toy-check: ok"


#: One cell per cached experiment, with the ``SimulationKey`` stem its
#: ``--cache-dir`` entry had before the experiments shared one cache
#: helper; a changed stem would orphan every existing cache entry.
RECORDED_STEMS = {
    "store_sharding": (
        ["--scale", "0.05", "--param", 'schemes=["pmod"]',
         "--param", 'patterns=["strided"]'],
        {"store-strided--pmod--f01ef48db320b9e7"}),
    "serving": (
        ["--scale", "0.2", "--param", 'schemes=["pmod"]',
         "--param", "rate_rps=20000"],
        {"serve-zipfian--pmod--a2db6120425eeace"}),
    "reshard": (
        ["--scale", "0.05", "--param", 'schemes=["pmod"]'],
        {"store-reshard--pmod--949aee86d6487dbf"}),
    "cluster": (
        ["--scale", "0.1", "--param", 'stacks=["pmod+pmod"]'],
        {"cluster-drill--pmod+pmod--cdf451381f4d096a"}),
    "federation": (
        ["--scale", "0.05"],
        {"federation-drill--healthy--160ed434ebdd7da3",
         "federation-drill--stalled--650ec725f04aa772"}),
}


@pytest.mark.parametrize("name", sorted(RECORDED_STEMS))
def test_cache_keys_match_recorded_stems(name, tmp_path, capsys):
    args, stems = RECORDED_STEMS[name]
    cache = tmp_path / "cache"
    main([name, "--cache-dir", str(cache), *args])
    capsys.readouterr()
    written = {path.name.removesuffix(".payload.json")
               for path in cache.glob("*/*.payload.json")}
    assert written == stems
