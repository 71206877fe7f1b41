"""The one experiment CLI, over the experiment registry.

::

    python -m repro.experiments list
    python -m repro.experiments <name> [--scale S] [--seed N]
        [--skew-replacement P] [--jobs J] [--cache-dir DIR]
        [--param KEY=VALUE ...] [--artifact PATH]
        [--metrics-out PATH] [--trace] [--journal PATH] [--dash PATH]
        [--check]

Every registered experiment runs through the same path: build an
artifact (the JSON document described in :mod:`repro.engine.registry`),
optionally write it to ``--artifact``, then render it to the terminal.
``python -m repro.experiments.<name> ARGS`` is the same command: each
module hands its arguments to :func:`main`.
``--param`` forwards experiment-specific knobs (e.g.
``--param workload=bt`` for the sweep experiments); values parse as
JSON when possible, otherwise as strings.

``--metrics-out PATH`` turns on the :mod:`repro.obs` layer for the
run and dumps the metrics + span snapshot (schema in
``docs/observability.md``) to PATH next to the artifact; ``--trace``
turns it on too and prints the rendered span tree after the report.
``--journal PATH`` additionally records the run's structured event
log (JSONL, ``docs/observability.md``) — experiment start/finish plus
whatever lifecycle events the engine/store/serve layers emit; and
``--dash PATH`` renders the post-run health dashboard (metrics + SLO
burn rates + drift + journal tail + bench trajectory) as one
self-contained HTML file.

``--check`` gates the experiment's contract, the ``checks`` block of
its artifact: after every requested output is written, the last line
is ``<name>-check: ok``, or the run exits 1 naming each false check
on stderr.  An experiment that publishes no checks is refused.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional

from repro.engine import (
    all_experiment_names,
    get_experiment,
    render_artifact,
    run_experiment,
)
from repro.experiments.common import context_from_args, standard_argparser
from repro.obs import (
    disable_observability,
    enable_journal,
    enable_observability,
    get_journal,
    get_registry,
    get_tracer,
    set_journal,
    trace_span,
    write_snapshot,
)


def parse_params(items: List[str]) -> Dict[str, Any]:
    """``KEY=VALUE`` pairs; VALUE is JSON when it parses, else a string."""
    params: Dict[str, Any] = {}
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep:
            raise SystemExit(f"--param needs KEY=VALUE, got {item!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def list_experiments() -> str:
    lines = []
    for name in all_experiment_names():
        spec = get_experiment(name)
        tag = "" if spec.uses_simulation else "  [analysis-only]"
        lines.append(f"{name:20s} {spec.title}{tag}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> None:
    parser = standard_argparser(__doc__)
    parser.prog = "python -m repro.experiments"
    parser.add_argument("experiment",
                        help="registered experiment name, or 'list'")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="experiment-specific parameter "
                             "(repeatable; VALUE parsed as JSON)")
    parser.add_argument("--artifact", default=None, metavar="PATH",
                        help="also write the artifact JSON to PATH "
                             "('-' = stdout instead of the rendering)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="enable observability and write the metrics "
                             "+ span snapshot JSON to PATH")
    parser.add_argument("--trace", action="store_true",
                        help="enable observability and print the span "
                             "tree after the report")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="enable observability and append the run's "
                             "structured event log (JSONL) to PATH")
    parser.add_argument("--dash", default=None, metavar="PATH",
                        help="enable observability and write the "
                             "post-run health dashboard HTML to PATH")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every entry of the artifact's "
                             "checks block holds")
    args = parser.parse_args(argv)
    if args.experiment == "list":
        print(list_experiments())
        return
    try:
        get_experiment(args.experiment)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None
    observed = bool(args.metrics_out or args.trace or args.journal
                    or args.dash)
    was_enabled = get_registry().enabled
    prior_journal = get_journal()
    journal_was_enabled = prior_journal.enabled
    if observed:
        enable_observability()
    if args.journal:
        enable_journal(args.journal)
    try:
        _run_and_report(args)
    finally:
        # Hand the process-wide observability back as it was found, so a
        # later caller in the same process does not inherit this run's
        # registry, tracer or journal.
        if observed and not was_enabled:
            disable_observability()
        set_journal(prior_journal)
        if journal_was_enabled:
            prior_journal.enable()


def _run_and_report(args) -> None:
    """Run, render and export one experiment under ``main``'s
    observability settings."""
    journal = get_journal()
    context = context_from_args(args, **parse_params(args.param))
    journal.emit("experiment.start", experiment=args.experiment,
                 scale=context.config.scale, seed=context.config.seed)
    status = "error"
    try:
        with trace_span("experiment", experiment=args.experiment):
            artifact = run_experiment(args.experiment, context)
        status = "ok"
    finally:
        journal.emit("experiment.finish", experiment=args.experiment,
                     status=status)
    # keep stdout parseable when the artifact JSON went to '-'
    report = sys.stderr if args.artifact == "-" else sys.stdout
    if args.artifact == "-":
        json.dump(artifact, sys.stdout, indent=1)
        print()
    else:
        if args.artifact:
            with open(args.artifact, "w") as stream:
                json.dump(artifact, stream, indent=1)
        print(render_artifact(artifact))
    if args.metrics_out:
        path = write_snapshot(args.metrics_out, get_registry(), get_tracer())
        print(f"metrics snapshot written to {path}", file=sys.stderr)
    if args.trace:
        print(file=report)
        print(get_tracer().render(), file=report)
    if args.dash:
        from repro.obs.dash import build_dashboard, write_dashboard
        from repro.obs.health import (
            HashQualityDetector,
            SloEngine,
            default_slos,
        )
        engine = SloEngine(default_slos(), registry=get_registry(),
                           journal=journal)
        statuses = engine.evaluate()
        detector = HashQualityDetector(registry=get_registry(),
                                       journal=journal)
        drift = detector.evaluate()
        model = build_dashboard(
            registry=get_registry(), tracer=get_tracer(), journal=journal,
            slo_statuses=statuses, alerts=engine.active_alerts(),
            drift_statuses=drift, bench_root=".")
        path = write_dashboard(args.dash, model)
        print(f"health dashboard written to {path}", file=sys.stderr)
    if args.check:
        # The verdict is the last line, after every requested output.
        name = args.experiment
        checks = artifact["data"].get("checks")
        if not checks:
            raise SystemExit(f"error: {name} publishes no checks for "
                             f"--check to gate")
        failing = [check for check, ok in checks.items() if not ok]
        if failing:
            print(f"{name}-check: FAILED ({', '.join(failing)})",
                  file=sys.stderr)
            raise SystemExit(1)
        print(f"{name}-check: ok", file=report)


if __name__ == "__main__":
    main()
