"""The simulation engine every experiment flows through.

:class:`SimulationEngine` runs (workload, scheme) simulations and
handles three concerns for every caller:

* **memoization + persistence** — every result is content-addressed by
  a :class:`~repro.engine.key.SimulationKey`; with a cache directory
  configured, results survive across processes and sessions and a
  warm cache performs zero new simulations;
* **trace materialization** — each workload trace is generated once per
  engine (and once per worker task in parallel mode) and shared across
  all schemes, instead of once per grid cell;
* **grid scheduling** — :meth:`SimulationEngine.run_grid` schedules the
  process pool *by workload*, so a worker synthesizes its workload's
  trace a single time and then simulates every outstanding scheme
  against it.

Figure builders call ``result`` / ``speedup`` / ``miss_ratio`` and read
``.config``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cpu.config import MachineConfig
from repro.cpu.simulator import ExecutionResult, simulate_scheme
from repro.engine.cache import ResultCache
from repro.engine.key import RunConfig, SimulationKey
from repro.engine.materialize import TraceMaterializer
from repro.obs import get_registry, trace_span
from repro.workloads import get_workload

#: One parallel task: simulate every listed scheme of one workload.
_WorkloadTask = Tuple[str, Tuple[str, ...], RunConfig, Optional[MachineConfig]]


def _simulate_workload_schemes(
    task: _WorkloadTask,
) -> Tuple[str, List[Tuple[str, ExecutionResult]]]:
    """Worker: one trace generation, many scheme simulations.

    Module-level so it pickles under the spawn start method too.
    """
    workload, schemes, config, machine = task
    trace = get_workload(workload).trace(scale=config.scale, seed=config.seed)
    return workload, [
        (
            scheme,
            simulate_scheme(
                trace, scheme, config=machine,
                skew_replacement=config.skew_replacement,
            ),
        )
        for scheme in schemes
    ]


class SimulationEngine:
    """Memoizing, disk-caching, trace-sharing simulation runner.

    Args:
        config: scale / seed / skew replacement for every run.
        machine: architecture parameters (default: paper Table 3).
        cache_dir: directory for the persistent result cache; ``None``
            disables persistence (in-memory memoization only).
        jobs: default worker-process count for :meth:`run_grid`
            (0 or 1 = serial, in-process).
    """

    def __init__(self, config: RunConfig = RunConfig(),
                 machine: MachineConfig = None,
                 cache_dir: str = None, jobs: int = 1):
        self.config = config
        self.machine = machine or MachineConfig.paper_default()
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if cache_dir is not None else None
        )
        self.traces = TraceMaterializer(config)
        self.jobs = jobs
        #: simulations actually executed by this engine (cache misses)
        self.sim_count = 0
        self._results: Dict[Tuple[str, str], ExecutionResult] = {}

    # -- identity ------------------------------------------------------

    def key(self, workload: str, scheme: str) -> SimulationKey:
        """Content address of one grid cell under this engine's config."""
        return SimulationKey.for_run(workload, scheme, self.config,
                                     self.machine)

    # -- single-cell API -----------------------------------------------

    def result(self, workload: str, scheme: str) -> ExecutionResult:
        """Simulate (or fetch the cached run of) one configuration."""
        cell = (workload, scheme)
        cached = self._results.get(cell)
        if cached is not None:
            return cached
        if self.cache is not None:
            persisted = self.cache.get(self.key(workload, scheme))
            if persisted is not None:
                self._results[cell] = persisted
                return persisted
        result = self._simulate(workload, scheme)
        self._store(cell, result)
        return result

    def speedup(self, workload: str, scheme: str) -> float:
        """Speedup of ``scheme`` over Base for one workload."""
        return self.result(workload, scheme).speedup_over(
            self.result(workload, "base")
        )

    def miss_ratio(self, workload: str, scheme: str) -> float:
        """L2 misses normalized to Base for one workload."""
        base = self.result(workload, "base").l2_misses
        if base == 0:
            return 1.0
        return self.result(workload, scheme).l2_misses / base

    def preload(self, results: Dict[Tuple[str, str], ExecutionResult]) -> None:
        """Adopt externally computed results (and persist them)."""
        for cell, result in results.items():
            self._store(cell, result)

    def _simulate(self, workload: str, scheme: str) -> ExecutionResult:
        trace = self.traces.get(workload)
        self.sim_count += 1
        get_registry().counter("engine.sim.runs").inc()
        with trace_span("simulate", workload=workload, scheme=scheme):
            return simulate_scheme(
                trace, scheme, config=self.machine,
                skew_replacement=self.config.skew_replacement,
            )

    def _store(self, cell: Tuple[str, str], result: ExecutionResult) -> None:
        self._results[cell] = result
        if self.cache is not None:
            self.cache.put(self.key(*cell), result)

    # -- grid API ------------------------------------------------------

    def missing_cells(self, workloads: Iterable[str],
                      schemes: Iterable[str]) -> Dict[str, List[str]]:
        """Grid cells not yet in memory or on disk, grouped by workload."""
        missing: Dict[str, List[str]] = {}
        for workload in workloads:
            for scheme in schemes:
                cell = (workload, scheme)
                if cell in self._results:
                    continue
                if self.cache is not None:
                    persisted = self.cache.get(self.key(workload, scheme))
                    if persisted is not None:
                        self._results[cell] = persisted
                        continue
                missing.setdefault(workload, []).append(scheme)
        return missing

    def run_grid(self, workloads: Iterable[str], schemes: Iterable[str],
                 jobs: int = None) -> Dict[Tuple[str, str], ExecutionResult]:
        """Ensure every (workload, scheme) cell is simulated.

        Cells already memoized or persisted are reused; the remainder
        are scheduled one *workload* per task so each trace is
        generated exactly once, serially or across ``jobs`` worker
        processes.  Returns the complete grid.
        """
        workloads = list(workloads)
        schemes = list(schemes)
        jobs = self.jobs if jobs is None else jobs
        with trace_span("run_grid", workloads=len(workloads),
                        schemes=len(schemes)):
            missing = self.missing_cells(workloads, schemes)
            if missing:
                if jobs and jobs > 1:
                    tasks: List[_WorkloadTask] = [
                        (workload, tuple(todo), self.config, self.machine)
                        for workload, todo in missing.items()
                    ]
                    max_workers = min(jobs, len(tasks)) or 1
                    with trace_span("parallel_grid", tasks=len(tasks),
                                    jobs=max_workers), \
                            ProcessPoolExecutor(max_workers=max_workers) as pool:
                        for workload, cells in pool.map(
                            _simulate_workload_schemes, tasks
                        ):
                            self.sim_count += len(cells)
                            get_registry().counter(
                                "engine.sim.runs").inc(len(cells))
                            for scheme, result in cells:
                                self._store((workload, scheme), result)
                else:
                    for workload, todo in missing.items():
                        for scheme in todo:
                            self._store((workload, scheme),
                                        self._simulate(workload, scheme))
        return {
            (w, s): self._results[(w, s)] for w in workloads for s in schemes
        }
