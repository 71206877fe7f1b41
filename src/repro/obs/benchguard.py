"""Bench-regression gating over the repo's ``BENCH_*.json`` outputs.

The benchmarks write machine-readable results at the repo root
(``BENCH_fastsim.json``, ``BENCH_store.json``, ``BENCH_serve.json``,
``BENCH_obs.json``); nothing watched them, so a change that halved
fastsim throughput would ship as long as tests stayed green.  This
module closes that gap:

* :func:`load_bench_files` reads every ``BENCH_*.json`` under a root;
* :func:`extract_metrics` pulls each file's *gated metrics* (the
  headline numbers worth regressing on) via :data:`BENCH_METRICS` —
  each with a direction (``lower``-is-better time or
  ``higher``-is-better throughput);
* a small history file (:data:`DEFAULT_HISTORY_NAME`, bounded to
  :data:`MAX_HISTORY_ENTRIES` runs) accumulates one metrics row per
  accepted run;
* :func:`check` compares the current value against the **median of the
  historical runs** and flags a regression only when the shortfall
  exceeds a **noise floor** — median-of-repeats because a single prior
  run is as noisy as the current one, and a floor because wall-clock
  benchmarks on shared machines jitter; the gate must measure signal.

``make bench-check`` runs :func:`main`: regressions exit nonzero and
leave the history untouched; a clean run appends itself so the
trajectory grows.  A metric with fewer than :data:`MIN_HISTORY_RUNS`
historical samples is recorded but not yet gated (a median of one run
is not a baseline).

On top of the median gate sits a **trend pass**: a median compares one
run against the middle of history and therefore cannot see a slow
bleed — five consecutive 2% steps never clear a 25% noise floor, yet
they are a 10% regression with an unmistakable direction.
:func:`trend_check` runs a Mann-Kendall monotonic-trend test over each
metric's full history series (non-parametric: it counts concordant
pairs, so one noisy spike cannot fake or mask a trend) and fits a
Theil-Sen slope (the median of pairwise slopes — same robustness
story) to report *how fast* the metric is moving.  A metric trips when
the trend is statistically significant (``|z| >=`` 1.645, one-sided
95%), points in the bad direction, and the fitted slope exceeds
:data:`TREND_SLOPE_FLOOR` per run relative to the series median —
direction alone is not a page if the drift is microscopic.
``make bench-trend`` prints the fitted slope table for every series so
the raw-speed push has a visible trajectory between gates.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "BENCH_METRICS",
    "DEFAULT_HISTORY_NAME",
    "DEFAULT_NOISE_FLOOR",
    "HISTORY_SCHEMA_VERSION",
    "MIN_TREND_RUNS",
    "Regression",
    "TREND_SLOPE_FLOOR",
    "TREND_Z_THRESHOLD",
    "TrendAlert",
    "append_history",
    "check",
    "extract_metrics",
    "load_bench_files",
    "load_history",
    "mann_kendall",
    "metric_directions",
    "metric_trajectories",
    "main",
    "theil_sen_slope",
    "trend_check",
    "trend_table",
]

#: History document version; bump on incompatible change.
HISTORY_SCHEMA_VERSION = 1

#: Default history file name, kept next to the BENCH_*.json files.
DEFAULT_HISTORY_NAME = "BENCH_history.json"

#: Relative shortfall vs the historical median below which a
#: difference is treated as scheduler/thermal noise, not regression.
DEFAULT_NOISE_FLOOR = 0.25

#: History entries retained (newest last).
MAX_HISTORY_ENTRIES = 40

#: Historical samples a metric needs before it is gated.
MIN_HISTORY_RUNS = 2

#: History entries a series needs before the trend pass judges it
#: (Mann-Kendall below 5 points has no meaningful significance).
MIN_TREND_RUNS = 5

#: One-sided 95% normal quantile: |z| at or above this is a
#: statistically significant monotonic trend.
TREND_Z_THRESHOLD = 1.645

#: Minimum fitted Theil-Sen slope, as a fraction of the series median
#: *per run*, for a significant bad-direction trend to trip — a real
#: but microscopic drift is a table row, not a failed gate.
TREND_SLOPE_FLOOR = 0.01

#: Gated metrics per bench document (keyed by the file's ``bench``
#: field): (metric name, path into the document, direction).
BENCH_METRICS: Dict[str, Tuple[Tuple[str, Tuple[str, ...], str], ...]] = {
    "fastsim_speedup": (
        ("vectorized_s", ("vectorized_s",), "lower"),
        ("speedup", ("speedup",), "higher"),
    ),
    "obs_overhead": (
        ("disabled_s", ("disabled_s",), "lower"),
        # Absolute traced time, not the overhead fraction: the paired
        # medians sit near zero, where a ratio's relative shortfall is
        # meaningless and the gate would silently skip.
        ("traced_s", ("traced_s",), "lower"),
    ),
    "store_sharding": (
        ("zipfian_pmod_throughput_rps",
         ("patterns", "zipfian", "pmod", "throughput_rps"), "higher"),
        ("strided_pmod_throughput_rps",
         ("patterns", "strided", "pmod", "throughput_rps"), "higher"),
    ),
    "serve": (
        ("closed_loop_throughput_rps",
         ("closed_loop", "throughput_rps"), "higher"),
        ("open_pmod_p99_s",
         ("open_loop", "schemes", "pmod", "latency", "p99"), "lower"),
    ),
    "reshard": (
        ("migrate_keys_per_s", ("migrate_keys_per_s",), "higher"),
        ("pmod_during_reshard_rps",
         ("schemes", "pmod", "during_rps"), "higher"),
    ),
    "cluster": (
        ("cluster_rps", ("cluster_rps",), "higher"),
        ("rereplicate_keys_per_s", ("rereplicate_keys_per_s",), "higher"),
        ("pmod_stack_loss_p99_s",
         ("stacks", "pmod+pmod", "during_loss_p99_s"), "lower"),
    ),
    "adversary": (
        # Probe counts are deterministic; "higher" = harder to crack.
        ("pmod_probes_to_crack",
         ("probes_to_crack", "pmod"), "higher"),
        ("pdisp_probes_to_crack",
         ("probes_to_crack", "pdisp"), "higher"),
        ("probe_factor", ("probe_factor",), "higher"),
        ("time_to_mitigate_s", ("time_to_mitigate_s",), "lower"),
    ),
}


def metric_directions() -> Dict[str, str]:
    """``"<bench>.<metric>" -> direction`` for every gated metric —
    the map the trend pass uses to decide which way is "worse"."""
    return {f"{bench}.{metric}": direction
            for bench, rows in BENCH_METRICS.items()
            for metric, _, direction in rows}


@dataclass(frozen=True)
class Regression:
    """One gated metric that fell outside the noise floor."""

    metric: str  #: "<bench>.<metric>"
    direction: str
    current: float
    median: float
    delta_frac: float  #: relative shortfall (positive = worse)
    noise_floor: float
    runs: int  #: historical samples behind the median

    def describe(self) -> str:
        arrow = "slower" if self.direction == "lower" else "lower"
        return (f"{self.metric}: {self.current:.6g} vs median "
                f"{self.median:.6g} over {self.runs} runs — "
                f"{self.delta_frac * 100:.1f}% {arrow} "
                f"(noise floor {self.noise_floor * 100:.0f}%)")


def load_bench_files(root: Union[str, os.PathLike]) -> Dict[str, Dict]:
    """Every readable ``BENCH_*.json`` under ``root``, keyed by its
    ``bench`` field (unreadable or unnamed files are skipped — a
    missing bench is not a regression, it is just not gated)."""
    docs: Dict[str, Dict] = {}
    for path in sorted(Path(root).glob("BENCH_*.json")):
        if path.name == DEFAULT_HISTORY_NAME:
            continue
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        name = doc.get("bench")
        if isinstance(name, str) and name:
            docs[name] = doc
    return docs


def _resolve(doc: Mapping, path: Tuple[str, ...]) -> Optional[float]:
    node: Any = doc
    for part in path:
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return float(node)
    return None


def extract_metrics(doc: Mapping) -> List[Tuple[str, float, str]]:
    """The gated (metric, value, direction) triples in ``doc``."""
    rows: List[Tuple[str, float, str]] = []
    for metric, path, direction in BENCH_METRICS.get(doc.get("bench"), ()):
        value = _resolve(doc, path)
        if value is not None:
            rows.append((metric, value, direction))
    return rows


def current_metrics(root: Union[str, os.PathLike]) -> Dict[str, Tuple[float, str]]:
    """``"<bench>.<metric>" -> (value, direction)`` for every bench
    file under ``root``."""
    out: Dict[str, Tuple[float, str]] = {}
    for name, doc in load_bench_files(root).items():
        for metric, value, direction in extract_metrics(doc):
            out[f"{name}.{metric}"] = (value, direction)
    return out


# -- history -----------------------------------------------------------


def load_history(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """The history document at ``path`` (a fresh empty one if absent
    or unreadable — a corrupt history resets the trajectory rather
    than blocking the gate)."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError):
        return {"schema_version": HISTORY_SCHEMA_VERSION, "entries": []}
    if (not isinstance(doc, dict)
            or doc.get("schema_version") != HISTORY_SCHEMA_VERSION
            or not isinstance(doc.get("entries"), list)):
        return {"schema_version": HISTORY_SCHEMA_VERSION, "entries": []}
    return doc


def append_history(history: Dict[str, Any],
                   metrics: Mapping[str, Tuple[float, str]]) -> Dict[str, Any]:
    """Append one run's metrics; trims to :data:`MAX_HISTORY_ENTRIES`."""
    entry = {
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "metrics": {name: value for name, (value, _) in sorted(
            metrics.items())},
    }
    history["entries"] = (history["entries"] + [entry])[-MAX_HISTORY_ENTRIES:]
    return history


def write_history(path: Union[str, os.PathLike],
                  history: Mapping[str, Any]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(history, indent=1) + "\n")
    return path


def metric_trajectories(history: Mapping[str, Any]) -> Dict[str, List[float]]:
    """Per-metric value series across history entries, oldest first."""
    series: Dict[str, List[float]] = {}
    for entry in history.get("entries", []):
        for name, value in entry.get("metrics", {}).items():
            if isinstance(value, (int, float)):
                series.setdefault(name, []).append(float(value))
    return series


# -- trend detection ---------------------------------------------------


def theil_sen_slope(values: Sequence[float]) -> float:
    """Theil-Sen estimator: the median of all pairwise slopes.

    Run index is the x-axis, so the result reads "units per run".
    Robust to outliers (breakdown point ~29%): one bad benchmark run
    shifts a handful of pairwise slopes, not the median of them.
    """
    n = len(values)
    if n < 2:
        return 0.0
    slopes = [(values[j] - values[i]) / (j - i)
              for i in range(n) for j in range(i + 1, n)]
    return statistics.median(slopes)


def mann_kendall(values: Sequence[float]) -> Tuple[int, float]:
    """Mann-Kendall monotonic-trend test: ``(S, z)``.

    ``S`` counts concordant minus discordant pairs; ``z`` is the
    continuity-corrected normal approximation with tie-corrected
    variance, positive for an upward trend.  Non-parametric — it sees
    only sign(later - earlier), so it detects "keeps drifting down"
    without assuming linearity or any noise distribution.
    """
    n = len(values)
    if n < 2:
        return 0, 0.0
    s = 0
    for i in range(n):
        for j in range(i + 1, n):
            diff = values[j] - values[i]
            s += (diff > 0) - (diff < 0)
    counts: Dict[float, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    var = (n * (n - 1) * (2 * n + 5)
           - sum(t * (t - 1) * (2 * t + 5) for t in counts.values())) / 18.0
    if var <= 0:
        return s, 0.0
    if s > 0:
        z = (s - 1) / var ** 0.5
    elif s < 0:
        z = (s + 1) / var ** 0.5
    else:
        z = 0.0
    return s, z


@dataclass(frozen=True)
class TrendAlert:
    """One metric with a significant trend in the bad direction."""

    metric: str  #: "<bench>.<metric>"
    direction: str  #: which way is *better* for this metric
    slope_per_run: float  #: fitted Theil-Sen slope (units per run)
    slope_frac_per_run: float  #: slope relative to the series median
    z: float  #: Mann-Kendall z statistic (sign = trend direction)
    s: int  #: Mann-Kendall S statistic
    runs: int

    def describe(self) -> str:
        way = "falling" if self.slope_per_run < 0 else "rising"
        return (f"{self.metric}: {way} "
                f"{abs(self.slope_frac_per_run) * 100:.2f}%/run over "
                f"{self.runs} runs (Theil-Sen {self.slope_per_run:+.6g}, "
                f"Mann-Kendall z={self.z:+.2f}) — '{self.direction}' is "
                f"better")


def trend_check(history: Mapping[str, Any],
                directions: Optional[Mapping[str, str]] = None,
                z_threshold: float = TREND_Z_THRESHOLD,
                slope_floor: float = TREND_SLOPE_FLOOR,
                min_runs: int = MIN_TREND_RUNS) -> List[TrendAlert]:
    """Significant bad-direction trends across the history series.

    A metric trips only when all three hold: the Mann-Kendall trend is
    significant (``|z| >= z_threshold``), it points the *bad* way for
    the metric's direction, and the Theil-Sen slope exceeds
    ``slope_floor`` of the series median per run.  Metrics with no
    recorded direction (no longer gated) and series shorter than
    ``min_runs`` are skipped.
    """
    if directions is None:
        directions = metric_directions()
    alerts: List[TrendAlert] = []
    for name, series in sorted(metric_trajectories(history).items()):
        direction = directions.get(name)
        if direction is None or len(series) < min_runs:
            continue
        s, z = mann_kendall(series)
        if abs(z) < z_threshold:
            continue
        bad_trend = z < 0 if direction == "higher" else z > 0
        if not bad_trend:
            continue
        slope = theil_sen_slope(series)
        median = statistics.median(series)
        slope_frac = slope / abs(median) if median else 0.0
        if abs(slope_frac) < slope_floor:
            continue
        alerts.append(TrendAlert(
            metric=name, direction=direction, slope_per_run=slope,
            slope_frac_per_run=slope_frac, z=z, s=s, runs=len(series)))
    return alerts


def trend_table(history: Mapping[str, Any],
                directions: Optional[Mapping[str, str]] = None) -> List[str]:
    """Human-readable Theil-Sen slope rows for every history series."""
    if directions is None:
        directions = metric_directions()
    rows: List[str] = []
    for name, series in sorted(metric_trajectories(history).items()):
        slope = theil_sen_slope(series)
        median = statistics.median(series)
        slope_frac = slope / abs(median) if median else 0.0
        _, z = mann_kendall(series)
        direction = directions.get(name, "?")
        rows.append(f"  {name:<45} {len(series):>3} runs  "
                    f"slope {slope:+12.6g}/run "
                    f"({slope_frac * 100:+7.2f}%/run)  z={z:+6.2f}  "
                    f"[{direction} is better]")
    return rows


# -- the gate ----------------------------------------------------------


def check(metrics: Mapping[str, Tuple[float, str]],
          history: Mapping[str, Any],
          noise_floor: float = DEFAULT_NOISE_FLOOR) -> List[Regression]:
    """Regressions of ``metrics`` against the history medians.

    A metric regresses when its relative shortfall against the median
    of its historical samples exceeds ``noise_floor`` in the *bad*
    direction (slower for ``lower``-is-better, less for ``higher``).
    Improvements never flag, and metrics with fewer than
    :data:`MIN_HISTORY_RUNS` samples are not yet gated.
    """
    trajectories = metric_trajectories(history)
    regressions: List[Regression] = []
    for name, (value, direction) in sorted(metrics.items()):
        samples = trajectories.get(name, [])
        if len(samples) < MIN_HISTORY_RUNS:
            continue
        median = statistics.median(samples)
        if median == 0:
            continue
        if direction == "lower":
            delta = (value - median) / abs(median)
        else:
            delta = (median - value) / abs(median)
        if delta > noise_floor:
            regressions.append(Regression(
                metric=name, direction=direction, current=value,
                median=median, delta_frac=delta, noise_floor=noise_floor,
                runs=len(samples)))
    return regressions


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Gate BENCH_*.json against the recorded trajectory.")
    parser.add_argument("--root", default=".", metavar="DIR",
                        help="directory holding BENCH_*.json (default .)")
    parser.add_argument("--history", default=None, metavar="PATH",
                        help=f"history file (default "
                             f"<root>/{DEFAULT_HISTORY_NAME})")
    parser.add_argument("--noise-floor", type=float,
                        default=DEFAULT_NOISE_FLOOR, metavar="FRAC",
                        help="relative shortfall treated as noise "
                             f"(default {DEFAULT_NOISE_FLOOR})")
    parser.add_argument("--no-update", action="store_true",
                        help="check only; do not append a clean run "
                             "to the history")
    parser.add_argument("--trend-table", action="store_true",
                        help="print the Theil-Sen slope table for every "
                             "history series and exit (no gating)")
    args = parser.parse_args(argv)
    history_path = (Path(args.history) if args.history
                    else Path(args.root) / DEFAULT_HISTORY_NAME)
    if args.trend_table:
        history = load_history(history_path)
        rows = trend_table(history)
        if not rows:
            print(f"benchguard: no history at {history_path}")
            return 0
        print(f"benchguard trend table ({history_path}):")
        for row in rows:
            print(row)
        return 0
    metrics = current_metrics(args.root)
    if not metrics:
        print(f"benchguard: no BENCH_*.json under {args.root}; "
              "nothing to gate")
        return 0
    history = load_history(history_path)
    regressions = check(metrics, history, noise_floor=args.noise_floor)
    trajectories = metric_trajectories(history)
    for name, (value, direction) in sorted(metrics.items()):
        runs = len(trajectories.get(name, []))
        gated = "gated" if runs >= MIN_HISTORY_RUNS else (
            f"recording ({runs}/{MIN_HISTORY_RUNS} runs)")
        print(f"  {name:<45} {value:>12.6g}  "
              f"({'lower' if direction == 'lower' else 'higher'} is "
              f"better, {gated})")
    # Trend pass over history *plus* the current run, so the freshest
    # point participates; a tripped trend fails like a median breach.
    with_current = {
        "schema_version": history.get("schema_version",
                                      HISTORY_SCHEMA_VERSION),
        "entries": list(history.get("entries", [])),
    }
    append_history(with_current, metrics)
    trends = trend_check(with_current)
    if regressions or trends:
        if regressions:
            print(f"benchguard: {len(regressions)} regression(s):",
                  file=sys.stderr)
            for regression in regressions:
                print(f"  REGRESSION {regression.describe()}",
                      file=sys.stderr)
        if trends:
            print(f"benchguard: {len(trends)} trending regression(s):",
                  file=sys.stderr)
            for trend in trends:
                print(f"  TREND {trend.describe()}", file=sys.stderr)
        print("history left untouched; investigate before re-baselining.",
              file=sys.stderr)
        return 1
    if not args.no_update:
        write_history(history_path, append_history(history, metrics))
        print(f"benchguard: ok — run appended to {history_path} "
              f"({len(load_history(history_path)['entries'])} entries)")
    else:
        print("benchguard: ok (history not updated)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
