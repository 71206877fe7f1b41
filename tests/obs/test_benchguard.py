"""Bench-regression gating: extraction, history, the noise-floored gate."""

import json

import pytest

from repro.obs.benchguard import (
    DEFAULT_HISTORY_NAME,
    DEFAULT_NOISE_FLOOR,
    HISTORY_SCHEMA_VERSION,
    MAX_HISTORY_ENTRIES,
    MIN_HISTORY_RUNS,
    MIN_TREND_RUNS,
    TREND_Z_THRESHOLD,
    append_history,
    check,
    current_metrics,
    extract_metrics,
    load_bench_files,
    load_history,
    main,
    mann_kendall,
    metric_trajectories,
    theil_sen_slope,
    trend_check,
    trend_table,
    write_history,
)


def history_with(name, samples):
    return {"schema_version": HISTORY_SCHEMA_VERSION,
            "entries": [{"recorded_at": f"t{i}", "metrics": {name: v}}
                        for i, v in enumerate(samples)]}


class TestExtraction:
    def test_obs_doc_yields_its_gated_metric(self):
        rows = extract_metrics({"bench": "obs_overhead", "disabled_s": 0.4,
                                "overhead_frac": 0.01})
        assert rows == [("disabled_s", 0.4, "lower")]

    def test_nested_paths_resolve(self):
        doc = {"bench": "serve",
               "closed_loop": {"throughput_rps": 1200.0},
               "open_loop": {"schemes": {"pmod": {"latency": {"p99": 0.02}}}}}
        assert dict((m, v) for m, v, _ in extract_metrics(doc)) == {
            "closed_loop_throughput_rps": 1200.0,
            "open_pmod_p99_s": 0.02,
        }

    def test_unknown_bench_and_missing_paths_extract_nothing(self):
        assert extract_metrics({"bench": "mystery", "x": 1}) == []
        assert extract_metrics({"bench": "serve"}) == []

    def test_bool_values_are_not_metrics(self):
        assert extract_metrics({"bench": "obs_overhead",
                                "disabled_s": True}) == []

    def test_load_bench_files_skips_history_and_junk(self, tmp_path):
        (tmp_path / "BENCH_a.json").write_text(
            json.dumps({"bench": "obs_overhead", "disabled_s": 1.0}))
        (tmp_path / DEFAULT_HISTORY_NAME).write_text(
            json.dumps({"bench": "bogus"}))
        (tmp_path / "BENCH_broken.json").write_text("{not json")
        (tmp_path / "BENCH_unnamed.json").write_text(json.dumps({"x": 1}))
        docs = load_bench_files(tmp_path)
        assert set(docs) == {"obs_overhead"}

    def test_current_metrics_prefixes_bench_name(self, tmp_path):
        (tmp_path / "BENCH_obs.json").write_text(
            json.dumps({"bench": "obs_overhead", "disabled_s": 0.3}))
        assert current_metrics(tmp_path) == {
            "obs_overhead.disabled_s": (0.3, "lower")}


class TestHistory:
    def test_absent_or_corrupt_resets_to_empty(self, tmp_path):
        empty = {"schema_version": HISTORY_SCHEMA_VERSION, "entries": []}
        assert load_history(tmp_path / "missing.json") == empty
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert load_history(bad) == empty
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"schema_version": 99, "entries": []}))
        assert load_history(wrong) == empty

    def test_append_trims_to_cap(self):
        history = history_with("m", range(MAX_HISTORY_ENTRIES))
        append_history(history, {"m": (999.0, "lower")})
        assert len(history["entries"]) == MAX_HISTORY_ENTRIES
        assert history["entries"][-1]["metrics"] == {"m": 999.0}
        assert history["entries"][0]["metrics"] == {"m": 1.0}  # oldest dropped

    def test_round_trip_through_disk(self, tmp_path):
        path = tmp_path / DEFAULT_HISTORY_NAME
        write_history(path, history_with("m", [1.0, 2.0]))
        assert metric_trajectories(load_history(path)) == {"m": [1.0, 2.0]}

    def test_trajectories_skip_non_numeric(self):
        history = {"schema_version": 1, "entries": [
            {"metrics": {"m": 1.0, "note": "text"}},
            {"metrics": {"m": 2.0}},
        ]}
        assert metric_trajectories(history) == {"m": [1.0, 2.0]}


class TestCheck:
    def test_lower_is_better_flags_slowdowns_only(self):
        history = history_with("fastsim.vectorized_s", [1.0, 1.0, 1.1])
        slow = check({"fastsim.vectorized_s": (2.0, "lower")}, history)
        (regression,) = slow
        assert regression.delta_frac == pytest.approx(1.0)
        assert "slower" in regression.describe()
        fast = check({"fastsim.vectorized_s": (0.5, "lower")}, history)
        assert fast == []  # improvements never flag

    def test_higher_is_better_flags_drops_only(self):
        history = history_with("serve.rps", [1000.0, 1000.0])
        assert check({"serve.rps": (400.0, "higher")}, history)
        assert check({"serve.rps": (5000.0, "higher")}, history) == []

    def test_noise_floor_absorbs_jitter(self):
        history = history_with("m", [1.0, 1.0])
        within = 1.0 + DEFAULT_NOISE_FLOOR * 0.9
        beyond = 1.0 + DEFAULT_NOISE_FLOOR * 1.1
        assert check({"m": (within, "lower")}, history) == []
        assert check({"m": (beyond, "lower")}, history)

    def test_thin_history_is_not_gated(self):
        history = history_with("m", [1.0] * (MIN_HISTORY_RUNS - 1))
        assert check({"m": (100.0, "lower")}, history) == []

    def test_zero_median_is_skipped(self):
        history = history_with("m", [0.0, 0.0])
        assert check({"m": (100.0, "lower")}, history) == []

    def test_gate_uses_median_not_latest(self):
        # One anomalous fast run must not make the next normal run
        # look like a regression.
        history = history_with("m", [1.0, 1.0, 0.1])
        assert check({"m": (1.1, "lower")}, history) == []


class TestMain:
    def seed(self, tmp_path, disabled_s=0.5, runs=2):
        (tmp_path / "BENCH_obs.json").write_text(json.dumps(
            {"bench": "obs_overhead", "disabled_s": disabled_s}))
        write_history(tmp_path / DEFAULT_HISTORY_NAME,
                      history_with("obs_overhead.disabled_s",
                                   [0.5] * runs))

    def test_clean_run_appends_to_history(self, tmp_path, capsys):
        self.seed(tmp_path)
        assert main(["--root", str(tmp_path)]) == 0
        assert "run appended" in capsys.readouterr().out
        entries = load_history(tmp_path / DEFAULT_HISTORY_NAME)["entries"]
        assert len(entries) == 3

    def test_no_update_leaves_history_alone(self, tmp_path, capsys):
        self.seed(tmp_path)
        assert main(["--root", str(tmp_path), "--no-update"]) == 0
        assert "history not updated" in capsys.readouterr().out
        entries = load_history(tmp_path / DEFAULT_HISTORY_NAME)["entries"]
        assert len(entries) == 2

    def test_regression_exits_one_and_preserves_history(self, tmp_path,
                                                        capsys):
        self.seed(tmp_path, disabled_s=2.0)  # 4x the recorded median
        assert main(["--root", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        assert "history left untouched" in captured.err
        entries = load_history(tmp_path / DEFAULT_HISTORY_NAME)["entries"]
        assert len(entries) == 2

    def test_thin_history_records_without_gating(self, tmp_path, capsys):
        self.seed(tmp_path, disabled_s=2.0, runs=1)  # would regress if gated
        assert main(["--root", str(tmp_path)]) == 0
        assert "recording (1/2 runs)" in capsys.readouterr().out

    def test_empty_root_is_not_an_error(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path)]) == 0
        assert "nothing to gate" in capsys.readouterr().out

    def test_custom_noise_floor_flag(self, tmp_path):
        self.seed(tmp_path, disabled_s=0.6)  # +20%: inside default floor
        assert main(["--root", str(tmp_path), "--no-update",
                     "--noise-floor", "0.1"]) == 1


def drifting(start, frac_per_run, runs):
    """A series compounding ``frac_per_run`` each run (+2% = 0.02)."""
    return [start * (1.0 + frac_per_run) ** i for i in range(runs)]


class TestTrendEstimators:
    def test_theil_sen_recovers_a_clean_slope(self):
        assert theil_sen_slope([1.0, 3.0, 5.0, 7.0]) == pytest.approx(2.0)

    def test_theil_sen_shrugs_off_one_outlier(self):
        # One wild run perturbs a few pairwise slopes, not their median.
        assert theil_sen_slope([1.0, 2.0, 3.0, 4.0, 50.0]) == (
            pytest.approx(1.0))

    def test_theil_sen_short_series_is_flat(self):
        assert theil_sen_slope([]) == 0.0
        assert theil_sen_slope([5.0]) == 0.0

    def test_mann_kendall_monotonic_is_significant(self):
        s, z = mann_kendall([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s == 10  # every pair concordant
        assert z >= TREND_Z_THRESHOLD

    def test_mann_kendall_sign_tracks_direction(self):
        _, up = mann_kendall(drifting(1.0, 0.02, 6))
        _, down = mann_kendall(drifting(1.0, -0.02, 6))
        assert up > 0 > down

    def test_mann_kendall_constant_series_is_zero(self):
        s, z = mann_kendall([2.0] * 8)
        assert (s, z) == (0, 0.0)


class TestTrendCheck:
    """The acceptance fixture: a 5-PR monotonic 2%-per-step regression
    must trip the trend pass; flat and trendless series must not."""

    def test_rising_lower_is_better_metric_trips(self):
        history = history_with("serve.open_pmod_p99_s",
                               drifting(2e-3, 0.02, MIN_TREND_RUNS))
        (alert,) = trend_check(history,
                               {"serve.open_pmod_p99_s": "lower"})
        assert alert.metric == "serve.open_pmod_p99_s"
        assert alert.slope_per_run > 0
        assert alert.slope_frac_per_run >= 0.01
        assert abs(alert.z) >= TREND_Z_THRESHOLD
        assert "rising" in alert.describe()

    def test_falling_higher_is_better_metric_trips(self):
        history = history_with("serve.rps",
                               drifting(1000.0, -0.02, MIN_TREND_RUNS))
        (alert,) = trend_check(history, {"serve.rps": "higher"})
        assert alert.slope_per_run < 0
        assert "falling" in alert.describe()

    def test_good_direction_drift_never_trips(self):
        history = history_with("serve.rps",
                               drifting(1000.0, 0.02, 8))  # improving
        assert trend_check(history, {"serve.rps": "higher"}) == []

    def test_flat_series_stays_green(self):
        history = history_with("m", [3.0] * 10)
        assert trend_check(history, {"m": "lower"}) == []

    def test_trendless_noise_stays_green(self):
        # Alternating jitter around a level: |S| stays small.
        series = [1.0 + 0.03 * (-1) ** i for i in range(10)]
        history = history_with("m", series)
        assert trend_check(history, {"m": "lower"}) == []

    def test_microscopic_drift_is_below_the_slope_floor(self):
        # Perfectly monotonic (z significant) but 0.1% per run: a
        # table row, not a page.
        history = history_with("m", drifting(1.0, 0.001, 10))
        assert trend_check(history, {"m": "lower"}) == []
        assert trend_check(history, {"m": "lower"}, slope_floor=0.0005)

    def test_short_series_is_not_judged(self):
        history = history_with(
            "m", drifting(1.0, 0.05, MIN_TREND_RUNS - 1))
        assert trend_check(history, {"m": "lower"}) == []

    def test_undirected_metrics_are_skipped(self):
        history = history_with("mystery.metric", drifting(1.0, 0.05, 8))
        assert trend_check(history, directions={}) == []

    def test_trend_table_lists_every_series(self):
        history = {"schema_version": HISTORY_SCHEMA_VERSION, "entries": [
            {"metrics": {"a": 1.0 + i, "b": 2.0}} for i in range(4)]}
        rows = trend_table(history, {"a": "lower", "b": "higher"})
        assert len(rows) == 2
        assert "a" in rows[0] and "4 runs" in rows[0]


class TestTrendGateInMain:
    def seed_drift(self, tmp_path, frac_per_run, runs=MIN_TREND_RUNS):
        """History drifting up plus a current run continuing the drift
        — each step far inside the 25% median noise floor, so only the
        trend pass can see it."""
        series = drifting(0.5, frac_per_run, runs + 1)
        (tmp_path / "BENCH_obs.json").write_text(json.dumps(
            {"bench": "obs_overhead", "disabled_s": series[-1]}))
        write_history(tmp_path / DEFAULT_HISTORY_NAME,
                      history_with("obs_overhead.disabled_s",
                                   series[:-1]))

    def test_sustained_drift_fails_the_gate(self, tmp_path, capsys):
        self.seed_drift(tmp_path, 0.02)
        assert main(["--root", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "TREND" in captured.err
        assert "history left untouched" in captured.err
        entries = load_history(tmp_path / DEFAULT_HISTORY_NAME)["entries"]
        assert len(entries) == MIN_TREND_RUNS  # failing run not recorded

    def test_stable_history_passes_the_gate(self, tmp_path):
        self.seed_drift(tmp_path, 0.0)
        assert main(["--root", str(tmp_path)]) == 0

    def test_trend_table_flag_prints_and_skips_gating(self, tmp_path,
                                                      capsys):
        self.seed_drift(tmp_path, 0.05)  # would fail the gate
        assert main(["--root", str(tmp_path), "--trend-table"]) == 0
        out = capsys.readouterr().out
        assert "obs_overhead.disabled_s" in out
