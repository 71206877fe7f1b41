"""The uniform ``python -m repro.experiments`` CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
        path = tmp_path / "sweep.json"
        main(["stride_sweep", "--artifact", str(path),
              "--param", "stride_step=1000"])
        artifact = json.loads(path.read_text())
        assert artifact["data"]["sweeps"]["pMod"]["strides"] == [
            1, 1001, 2001]
        assert artifact["config"]["params"] == {"stride_step": 1000}


SRC = Path(__file__).resolve().parents[2] / "src"


def _refusal_lines(args):
    """Run the CLI in a subprocess that must exit 1 with nothing on
    stdout; returns its stderr lines."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    assert done.stdout == ""
    return done.stderr.strip().splitlines()


class TestRefusedParams:
    """An undeclared ``--param`` key, or a value of another type than
    the knob's default, ends the run before it starts: exit status 1,
    one line on stderr, no traceback."""

    @pytest.mark.parametrize("args", [
        ["fragmentation", "--param", "set_count=[64]"],
        ["store_sharding", "--param", "requests=50000"],
        ["store_sharding", "--param", "workers=abc"],
    ])
    def test_one_line_and_no_traceback(self, args):
        lines = _refusal_lines(args)
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "declared: " in lines[0]

    def test_a_param_without_equals_is_one_error_line(self):
        assert _refusal_lines(["fragmentation", "--param", "foo"]) == [
            "error: --param needs KEY=VALUE, got 'foo'"]

    def test_messages_name_the_key_and_the_declared_knobs(self):
        with pytest.raises(SystemExit) as info:
            main(["fragmentation", "--param", "set_count=[64]"])
        assert info.value.code == (
            "error: fragmentation takes no --param 'set_count' "
            "(declared: none)")
        with pytest.raises(SystemExit) as info:
            main(["store_sharding", "--param", "workers=abc"])
        assert info.value.code == (
            "error: store_sharding --param workers must be int, got 'abc' "
            "(declared: workers)")


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
        return {"checks": ctx.param("checks")} if ctx.param("checks") else {}

    register(ExperimentSpec(name="toy", title="toy contract", build=build,
                            render=lambda artifact: "toy report",
                            uses_simulation=False, params={"checks": {}}))
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


#: The ``SimulationKey`` stems each cached drill's default run wrote
#: before its knobs became module constants; a changed stem would
#: orphan every existing cache entry.
RECORDED_STEMS = {
    "store_sharding": (["--scale", "0.05"], {
        "store-pow2--pdisp--f31c40afb4423385",
        "store-pow2--pmod--5c48a38de17f9468",
        "store-pow2--traditional--b56477ff29533a61",
        "store-pow2--xor--3559144645392fca",
        "store-strided--pdisp--d642595cd562ea98",
        "store-strided--pmod--f01ef48db320b9e7",
        "store-strided--traditional--9cf1d3932000c19e",
        "store-strided--xor--19c9acebd5adf561",
        "store-zipfian--pdisp--6bf650a9354e5d79",
        "store-zipfian--pmod--93a24733f8d5f24e",
        "store-zipfian--traditional--c286540f74824fcc",
        "store-zipfian--xor--43f5b3957c3b14a9"}),
    "serving": (["--scale", "0.2"], {
        "serve-zipfian--pdisp--1a2c204f97a99724",
        "serve-zipfian--pmod--a39dbb3258707963",
        "serve-zipfian--traditional--16ecfe3f53f09140",
        "serve-zipfian--xor--90f5936b63570b8e"}),
    "reshard": (["--scale", "0.05"], {
        "store-reshard--pdisp--5f20f8d6def57325",
        "store-reshard--pmod--949aee86d6487dbf",
        "store-reshard--traditional--d0ac4a5c7ceaef41",
        "store-reshard--xor--c9ccc9f0491027cf"}),
    "cluster": (["--scale", "0.1"], {
        "cluster-drill--pmod+pmod--cdf451381f4d096a",
        "cluster-drill--pmod+traditional--32a1c0b05d1f140b",
        "cluster-drill--traditional+traditional--1f2b2f8941037ad8"}),
}


def _stems(name, cache, *args):
    main([name, "--cache-dir", str(cache), *args])
    return {path.name.removesuffix(".payload.json")
            for path in cache.glob("*/*.payload.json")}


@pytest.mark.parametrize("name", sorted(RECORDED_STEMS))
def test_cache_keys_match_recorded_stems(name, tmp_path, capsys):
    args, stems = RECORDED_STEMS[name]
    assert _stems(name, tmp_path / "cache", *args) == stems
    capsys.readouterr()


def test_a_constant_feeds_its_cells_key(tmp_path, capsys, monkeypatch):
    """Editing a knob-turned-constant misses the cache: the value is
    part of each cell's key."""
    from repro.experiments import store_sharding
    monkeypatch.setattr(store_sharding, "DEFAULT_SCHEMES", ("pmod",))
    monkeypatch.setattr(store_sharding, "DEFAULT_PATTERNS", ("strided",))
    cache = tmp_path / "cache"
    assert _stems("store_sharding", cache, "--scale", "0.05") == {
        "store-strided--pmod--f01ef48db320b9e7"}
    monkeypatch.setattr(store_sharding, "SHARD_CAPACITY", 256)
    assert len(_stems("store_sharding", cache, "--scale", "0.05")) == 2
    capsys.readouterr()
