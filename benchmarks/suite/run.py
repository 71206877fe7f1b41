"""One benchmark for the whole stack: serve, store, cluster and the
Figure 7 simulation, timed end to end and layer by layer.

    python3 benchmarks/suite/run.py --seed 0 [--workload NAME]
        [--seconds S] [--trace [0|1]] [--out DIR]

Without ``--trace`` (or with ``--trace 0``) each selected workload runs
in its own child process for ``--seconds`` (default: ``run_seconds`` of
``BENCHMARK.json``), and every end-to-end metric of ``BENCHMARK.json``
is printed with its unit, sample count and quartiles.  With
``--trace 1`` the run measures the per-layer metrics
instead: a traced pass of every workload plus the layer ladder, whatever
``--workload`` names, because every per-layer metric describes a layer
and the full set is reported by each traced run.

Times, rates and the ``--seconds`` budget are in reference seconds:
host time corrected for the shared host's current speed (see
``refclock.py``).

Each run's last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Every
output is checked; the exit code is 1 when any op failed its check, and
2 when the program could not be run at all.

``--write-golden SEED...`` regenerates the committed Figure 7 grids that
the paper-fig7 check compares against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
#: Same as ``workloads.WORKLOADS``; the parent imports none of the program.
WORKLOADS = ("serve-zipf", "store-churn", "cluster-r2", "paper-fig7")

#: A child counts as hung after CHILD_BASE_S plus CHILD_S_PER_SECOND
#: times the seconds it measures.  Imports, inputs and a Figure 7 grid
#: pass take a fixed time, and a rep may run for up to twice its budget
#: on a slow host.
CHILD_BASE_S = 60.0
CHILD_S_PER_SECOND = 4.0

#: Share of ``--seconds`` each traced pass spends on its untraced run
#: (the traced rerun of the same ops takes about as long again).
TRACE_SHARE = 1.0 / 8


class ChildFailed(RuntimeError):
    """A child process exited nonzero, timed out or printed no result."""


def benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared():
    """``(end_to_end, per_layer)`` metric declarations, by name."""
    doc = benchmark()
    return ({m["name"]: m for m in doc["end_to_end"]},
            {m["name"]: m for m in doc["per_layer"]})


def run_child(part, mode, seed, seconds, spans=None):
    """Run one part in a fresh interpreter; returns its JSON payload."""
    cmd = [sys.executable, str(SUITE / "workloads.py"), "--part", part,
           "--mode", mode, "--seed", str(seed), "--seconds", str(seconds)]
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    timeout = CHILD_BASE_S + CHILD_S_PER_SECOND * seconds
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{part}: timed out after {timeout:.0f} s") \
            from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{part} ({mode}) exited {proc.returncode}")
    return json.loads(lines[-1])


def environment():
    """Where and when the numbers were taken."""
    rev = dirty = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel"], capture_output=True,
                             text=True, timeout=10)
        if top.returncode == 0 and Path(top.stdout.strip()) == ROOT:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                  "HEAD"], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain"],
                capture_output=True, text=True, timeout=10).stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_rev": rev, "git_dirty": dirty,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "utc": datetime.now(timezone.utc).isoformat(timespec="seconds")}


def _fmt(value):
    return f"{value:.6g}"


def report(title, payload, units):
    """Print one result block and its JSON line; returns the exit code.

    ``payload`` is a child's (or a merged) result; ``units`` maps every
    metric name the run must emit to its declaration.  A missing or
    undeclared metric, or any failed op, makes the run incorrect.
    """
    metrics = payload["metrics"]
    attempted, failed = payload["attempted"], payload["failed"]
    names_ok = set(metrics) == set(units)
    correct = failed == 0 and attempted > 0 and names_ok
    print(f"== {title}: attempted {attempted}, failed {failed}, "
          f"error_frac {failed / max(attempted, 1):.6g}")
    if not names_ok:
        print(f"   metric set differs from BENCHMARK.json: missing "
              f"{sorted(set(units) - set(metrics))}, undeclared "
              f"{sorted(set(metrics) - set(units))}")
    width = max(len(name) for name in metrics)
    for name in sorted(metrics):
        entry = metrics[name]
        unit = units.get(name, {}).get("unit", "?")
        if isinstance(entry, dict):
            print(f"   {name:<{width}}  {_fmt(entry['value']):>12} {unit:<6}"
                  f" n={entry['n']}  q1={_fmt(entry['q1'])}"
                  f"  q3={_fmt(entry['q3'])}")
        else:
            print(f"   {name:<{width}}  {_fmt(entry):>12} {unit}")
    for key, value in payload.get("notes", {}).items():
        print(f"   note {key}: {value}")
    line = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {
            name: {"value": entry["value"] if isinstance(entry, dict)
                   else entry,
                   "unit": units.get(name, {}).get("unit", "?")}
            for name, entry in sorted(metrics.items())},
    }
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


def measure(args):
    end_to_end, _ = declared()
    names = WORKLOADS if args.workload is None else (args.workload,)
    code, results = 0, {}
    for name in names:
        payload = run_child(name, "measure", args.seed, args.seconds)
        results[name] = payload
        code = max(code, report(f"{name} seed {args.seed}", payload,
                                end_to_end))
    return code, results


def trace(args):
    _, per_layer = declared()
    merged = {"metrics": {}, "attempted": 0, "failed": 0, "notes": {}}
    for part in WORKLOADS + ("ladder",):
        spans = (Path(args.out) / f"spans-{part}.json"
                 if args.out and part != "ladder" else None)
        payload = run_child(part, "trace", args.seed,
                            args.seconds * TRACE_SHARE, spans)
        merged["metrics"].update(payload["metrics"])
        merged["attempted"] += payload["attempted"]
        merged["failed"] += payload["failed"]
        merged["numpy"] = payload["numpy"]
    code = report(f"per-layer seed {args.seed}", merged, per_layer)
    return code, {"per-layer": merged}


def write_result(args, mode, results):
    end_to_end, per_layer = declared()
    units = {**end_to_end, **per_layer}
    out = Path(args.out)
    doc = {"mode": mode, "seed": args.seed, "seconds": args.seconds,
           "env": environment(), "results": {}}
    for name, payload in results.items():
        doc["env"].setdefault("numpy", payload.get("numpy"))
        doc["results"][name] = {
            "attempted": payload["attempted"], "failed": payload["failed"],
            "error_frac": payload["failed"] / max(payload["attempted"], 1),
            "notes": payload.get("notes", {}),
            "metrics": {
                metric: {**(entry if isinstance(entry, dict)
                            else {"value": entry}),
                         "unit": units.get(metric, {}).get("unit")}
                for metric, entry in payload["metrics"].items()},
        }
    (out / "result.json").write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark suite (see module docstring).")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: measure the per-layer metrics instead")
    parser.add_argument("--out", default=None,
                        help="write result.json (and sampled spans) here")
    parser.add_argument("--write-golden", type=int, nargs="+",
                        metavar="SEED",
                        help="regenerate the Figure 7 golden grids and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"run.py: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(benchmark()["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.write_golden:
        sys.path.insert(0, str(SRC))
        import workloads
        for seed in args.write_golden:
            print(f"wrote {workloads.write_golden(seed)}")
        return 0
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)

    try:
        if args.trace:
            code, results = trace(args)
        else:
            code, results = measure(args)
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.out:
        write_result(args, "trace" if args.trace else "measure", results)
    return code


if __name__ == "__main__":
    sys.exit(main())
