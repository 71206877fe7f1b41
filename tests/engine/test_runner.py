"""SimulationEngine: memoization, persistence, trace sharing, grids."""

import pytest

from repro.cpu import simulate_scheme
from repro.engine import RunConfig, SimulationEngine
from repro.workloads import get_workload

CONFIG = RunConfig(scale=0.05)


class TestSingleCell:
    def test_matches_simulate_scheme(self):
        engine = SimulationEngine(CONFIG)
        trace = get_workload("tree").trace(scale=CONFIG.scale,
                                           seed=CONFIG.seed)
        assert engine.result("tree", "pmod") == simulate_scheme(trace, "pmod")

    def test_memoizes_in_memory(self):
        engine = SimulationEngine(CONFIG)
        first = engine.result("lu", "base")
        second = engine.result("lu", "base")
        assert first is second
        assert engine.sim_count == 1

    def test_caches_results(self):
        engine = SimulationEngine(CONFIG)
        pmod = engine.result("lu", "pmod")
        engine.speedup("lu", "pmod")
        engine.miss_ratio("lu", "pmod")
        assert engine.result("lu", "pmod") is pmod
        assert engine.sim_count == 2  # pmod and the Base it is scaled by

    def test_distinct_schemes_distinct_runs(self):
        engine = SimulationEngine(CONFIG)
        assert engine.result("lu", "base") is not engine.result("lu", "pmod")

    def test_speedup_and_miss_ratio(self):
        engine = SimulationEngine(CONFIG)
        assert engine.speedup("tree", "pmod") > 0
        assert engine.miss_ratio("tree", "pmod") > 0

    def test_miss_ratio_positive(self):
        assert SimulationEngine(CONFIG).miss_ratio("lu", "pmod") > 0

    def test_speedup_of_base_is_one(self):
        assert SimulationEngine(CONFIG).speedup("lu", "base") == 1.0

    def test_miss_ratio_of_base_is_one(self):
        assert SimulationEngine(CONFIG).miss_ratio("lu", "base") == 1.0

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            SimulationEngine(CONFIG).result("linpack", "base")

    def test_unknown_scheme_raises(self):
        with pytest.raises(KeyError):
            SimulationEngine(CONFIG).result("lu", "victim")


class TestPersistence:
    def test_warm_cache_runs_zero_simulations(self, tmp_path, monkeypatch):
        cold = SimulationEngine(CONFIG, cache_dir=tmp_path)
        cold.run_grid(["lu", "tree"], ["base", "pmod"])
        assert cold.sim_count == 4

        calls = []
        import repro.engine.runner as runner
        real = runner.simulate_scheme

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "simulate_scheme", counting)
        warm = SimulationEngine(CONFIG, cache_dir=tmp_path)
        grid = warm.run_grid(["lu", "tree"], ["base", "pmod"])
        assert calls == []
        assert warm.sim_count == 0
        assert grid == {
            cell: cold._results[cell] for cell in grid
        }

    def test_cold_and_warm_results_identical(self, tmp_path):
        cold = SimulationEngine(CONFIG, cache_dir=tmp_path)
        original = cold.result("mcf", "pdisp")
        warm = SimulationEngine(CONFIG, cache_dir=tmp_path)
        assert warm.result("mcf", "pdisp") == original

    def test_config_change_invalidates(self, tmp_path):
        SimulationEngine(CONFIG, cache_dir=tmp_path).result("lu", "base")
        other = SimulationEngine(RunConfig(scale=0.08), cache_dir=tmp_path)
        other.result("lu", "base")
        assert other.sim_count == 1  # different key -> fresh simulation


class TestTraceSharing:
    def test_each_trace_generated_once(self):
        engine = SimulationEngine(CONFIG)
        engine.run_grid(["lu", "tree"], ["base", "pmod", "xor"])
        assert engine.traces.build_counts["lu"] == 1
        assert engine.traces.build_counts["tree"] == 1

    def test_single_cells_share_the_grid_trace(self):
        engine = SimulationEngine(CONFIG)
        engine.run_grid(["lu"], ["base"])
        engine.result("lu", "pmod")
        assert engine.traces.build_counts["lu"] == 1


class TestParallel:
    def test_parallel_equals_serial(self, tmp_path):
        serial = SimulationEngine(CONFIG)
        parallel = SimulationEngine(CONFIG, jobs=2)
        workloads, schemes = ["lu", "tree", "mcf"], ["base", "pmod"]
        expected = serial.run_grid(workloads, schemes)
        actual = parallel.run_grid(workloads, schemes)
        assert actual == expected

    def test_parallel_fills_the_persistent_cache(self, tmp_path):
        engine = SimulationEngine(CONFIG, cache_dir=tmp_path, jobs=2)
        engine.run_grid(["lu", "tree"], ["base"])
        warm = SimulationEngine(CONFIG, cache_dir=tmp_path)
        warm.run_grid(["lu", "tree"], ["base"])
        assert warm.sim_count == 0
