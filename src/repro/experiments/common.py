"""Shared infrastructure for the paper-reproduction experiments.

Every experiment module follows the same shape: a ``run(...)`` function
returning a result dataclass and a ``render(result)`` returning the
terminal report.  One CLI, ``python -m repro.experiments <name>``
(:mod:`repro.experiments.__main__`), regenerates every figure/table;
``python -m repro.experiments.<name>`` hands its arguments to it.

Simulation runs flow through :mod:`repro.engine`: the
:class:`~repro.engine.SimulationEngine` content-addresses every run,
persists results under ``--cache-dir``, materializes each workload
trace once per grid and schedules parallel grids by workload.
"""

from __future__ import annotations

import argparse

from repro.engine import ExperimentContext, RunConfig, SimulationEngine

__all__ = [
    "ExperimentContext",
    "RunConfig",
    "config_from_args",
    "context_from_args",
    "standard_argparser",
]


def standard_argparser(description: str) -> argparse.ArgumentParser:
    """Run-config options shared by the experiment CLI and the scripts.

    Options: ``--scale`` / ``--seed`` / ``--skew-replacement`` (the
    RunConfig), ``--jobs`` (parallel grid workers) and ``--cache-dir``
    (persistent result cache).
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="trace-length multiplier (default 1.0)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload RNG seed (default 0)")
    parser.add_argument("--skew-replacement", default="enru",
                        choices=("enru", "nrunrw"),
                        help="skewed-cache replacement policy "
                             "(default enru, the paper's)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for simulation grids "
                             "(default 1 = serial)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist simulation results under DIR so "
                             "re-runs perform zero new simulations")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """RunConfig from a :func:`standard_argparser` namespace."""
    return RunConfig(
        scale=args.scale,
        seed=args.seed,
        skew_replacement=getattr(args, "skew_replacement", "enru"),
    )


def context_from_args(args: argparse.Namespace,
                      **params) -> ExperimentContext:
    """ExperimentContext (engine + params) from a parsed namespace."""
    engine = SimulationEngine(
        config=config_from_args(args),
        cache_dir=getattr(args, "cache_dir", None),
        jobs=getattr(args, "jobs", 1) or 1,
    )
    return ExperimentContext(engine=engine, params=params)
