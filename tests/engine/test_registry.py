"""Experiment registry: artifacts, schema conformance, rendering."""

import json

import pytest

from repro.engine import (
    ARTIFACT_SCHEMA_VERSION,
    ExperimentContext,
    ExperimentSpec,
    RunConfig,
    SimulationEngine,
    all_experiment_names,
    get_experiment,
    register,
    registry,
    render_artifact,
    run_experiment,
    validate_artifact,
)
from repro.experiments import EXPERIMENT_MODULES


def make_context(scale=0.05, cache_dir=None, **params):
    engine = SimulationEngine(RunConfig(scale=scale), cache_dir=cache_dir)
    return ExperimentContext(engine=engine, params=params)


class TestRegistry:
    def test_every_module_registers(self):
        names = all_experiment_names()
        assert set(names) == set(EXPERIMENT_MODULES)

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="fragmentation"):
            get_experiment("nonesuch")

    def test_analysis_only_experiments_flagged(self):
        for name in ("fragmentation", "qualitative", "machine",
                     "stride_sweep"):
            assert not get_experiment(name).uses_simulation
        assert get_experiment("summary").uses_simulation


def check_envelope(artifact, name):
    validate_artifact(artifact)
    assert artifact["schema_version"] == ARTIFACT_SCHEMA_VERSION
    assert artifact["experiment"] == name
    assert artifact["title"] == get_experiment(name).title
    # the whole artifact must survive a JSON round trip unchanged
    assert json.loads(json.dumps(artifact)) == artifact


class TestArtifacts:
    def test_analysis_experiments_conform(self):
        for name, params in (("fragmentation", {}), ("machine", {}),
                             ("qualitative", {}),
                             ("stride_sweep", {"stride_step": 1000})):
            artifact = run_experiment(name, make_context(**params))
            check_envelope(artifact, name)
            assert render_artifact(artifact)

    def test_simulation_experiment_conforms(self):
        artifact = run_experiment("miss_distribution", make_context())
        check_envelope(artifact, "miss_distribution")
        assert "tree" in render_artifact(artifact)

    def test_params_recorded_in_config(self):
        ctx = make_context(stride_step=1000)
        artifact = run_experiment("stride_sweep", ctx)
        assert artifact["config"]["params"] == {"stride_step": 1000}
        sweep = artifact["data"]["sweeps"]["pMod"]
        assert sweep["strides"] == [1, 1001, 2001]

    def test_reloaded_artifact_renders_identically(self, tmp_path):
        artifact = run_experiment("fragmentation", make_context())
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(artifact))
        reloaded = json.loads(path.read_text())
        assert render_artifact(reloaded) == render_artifact(artifact)

    def test_validate_rejects_bad_artifacts(self):
        artifact = run_experiment("fragmentation", make_context())
        with pytest.raises(ValueError, match="missing keys"):
            validate_artifact({k: v for k, v in artifact.items()
                               if k != "data"})
        with pytest.raises(ValueError, match="schema"):
            validate_artifact({**artifact, "schema_version": 999})


class TestCachedArtifacts:
    def test_cold_and_warm_artifacts_identical(self, tmp_path, monkeypatch):
        cold = run_experiment(
            "miss_distribution", make_context(cache_dir=tmp_path))

        # a warm run must not touch the hierarchy at all
        import repro.experiments.miss_distribution as md
        def boom(*a, **k):
            raise AssertionError("warm run re-simulated")
        monkeypatch.setattr(md, "_measure", boom)

        warm = run_experiment(
            "miss_distribution", make_context(cache_dir=tmp_path))
        assert warm == cold


@pytest.fixture
def toy(monkeypatch):
    """A registered experiment with one int knob and one off-by-default
    knob, whose builds are recorded."""
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    built = []
    register(ExperimentSpec(
        name="toy", title="toy", build=lambda ctx: built.append(ctx) or {},
        render=lambda artifact: "toy", uses_simulation=False,
        params={"workers": 1, "stall_shard": None}))
    return built


class TestDeclaredKnobs:
    def test_undeclared_key_refused_before_build(self, toy):
        with pytest.raises(ValueError) as info:
            run_experiment("toy", make_context(set_count=[64]))
        message = str(info.value)
        assert "\n" not in message
        assert "'set_count'" in message
        assert "(declared: workers, stall_shard)" in message
        assert toy == []

    def test_value_of_another_type_refused_before_build(self, toy):
        for params in ({"workers": "abc"}, {"workers": 2.0},
                       {"workers": True}, {"stall_shard": "0"},
                       {"workers": None}):
            with pytest.raises(ValueError, match="must be int"):
                run_experiment("toy", make_context(**params))
        assert toy == []

    def test_build_sees_every_knob(self, toy):
        run_experiment("toy", make_context(workers=4))
        run_experiment("toy", make_context(stall_shard=0))
        run_experiment("toy", make_context(stall_shard=None))
        assert [ctx.params for ctx in toy] == [
            {"workers": 4, "stall_shard": None},
            {"workers": 1, "stall_shard": 0},
            {"workers": 1, "stall_shard": None},
        ]
        assert toy[0].param("workers") == 4

    def test_config_records_every_knob(self, toy):
        artifact = run_experiment("toy", make_context(workers=4))
        assert artifact["config"]["params"] == {"workers": 4,
                                                "stall_shard": None}
        artifact = run_experiment("fragmentation", make_context())
        assert artifact["config"]["params"] == {}

    def test_param_takes_no_default(self, toy):
        run_experiment("toy", make_context())
        with pytest.raises(KeyError):
            toy[0].param("requests")
