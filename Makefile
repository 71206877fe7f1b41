# Convenience targets for the prime-indexing reproduction.

PYTHON ?= python
JOBS ?= 4
SCALE ?= 1.0
CACHE_DIR ?= .repro-cache

.PHONY: install test verify bench bench-suite bench-suite-test store-bench obs-check serve-check serve-bench health-check trace-check reshard-check reshard-bench cluster-check cluster-bench adversary-check adversary-bench fed-check fed-bench bench-check bench-trend dash eval figures report examples clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The tier-1 gate: full suite, stop at first failure, quiet output —
# then every drill's contract through the experiment CLI's --check
# (store_sharding's Figure 5 ordering on served traffic included),
# then the serving gate (tests/serve under asyncio debug mode, which
# reports never-awaited coroutines and never-retrieved task
# exceptions, plus the smoke load) and the tracing gate,
# then the bench-regression gate over the recorded BENCH_* trajectory
# (check-only: `make bench-check` is the target that appends history),
# then an import check of the bench harness, which tier-1 never loads,
# then the benchmark suite's own tests (the committed golden-grid
# check, every declared metric emitted, the refusal paths).
verify:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	PYTHONPATH=src $(PYTHON) -m repro.experiments store_sharding --check
	PYTHONPATH=src $(PYTHON) -m repro.experiments reshard --check
	PYTHONPATH=src $(PYTHON) -m repro.experiments cluster --check
	PYTHONPATH=src $(PYTHON) -m repro.experiments adversary --check
	PYTHONPATH=src $(PYTHON) -m repro.experiments federation --check
	$(MAKE) serve-check
	$(MAKE) trace-check
	PYTHONPATH=src $(PYTHON) -m repro.obs.benchguard --no-update
	PYTHONPATH=src $(PYTHON) -m pytest --collect-only -q benchmarks
	$(MAKE) bench-suite-test

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The repo's benchmark (BENCHMARK.json): all four workloads at seed 0,
# every end-to-end metric with its unit and quartiles.
bench-suite:
	python3 benchmarks/suite/run.py --seed 0

# The benchmark suite's own tests (~50 s).
bench-suite-test:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/suite -q

# Sharded-store replay benchmark; writes BENCH_store.json at the root.
store-bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_store_sharding.py --benchmark-only

# Observability gate: the obs test suite plus the guard that the
# disabled registry adds <2% to fastsim.simulate_misses (writes
# BENCH_obs.json at the root).
obs-check:
	PYTHONPATH=src $(PYTHON) -m pytest tests/obs -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_obs_overhead.py -q -s

# Serving gate: the serve test suite under asyncio debug mode
# (python -X dev) plus the two-phase smoke load (all-ok at low rate,
# explicit rejects with full accounting under overload); exits nonzero
# on any contract violation.
serve-check:
	PYTHONPATH=src $(PYTHON) -X dev -m pytest tests/serve -q
	PYTHONPATH=src $(PYTHON) -m repro.serve.smoke

# Serving benchmark: closed-loop throughput + per-scheme open-loop
# tail latency; writes BENCH_serve.json at the root.
serve-bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_serve.py -q -s

# Health gate: the SLO burn-rate fault drill + hash-quality drift
# drill; exits nonzero unless every watchdog check holds.
health-check:
	PYTHONPATH=src $(PYTHON) -m repro.experiments health --check

# Tracing gate: the serving drill with request tracing on (per-scheme
# stage decompositions must explain >=90% of measured wall time), the
# cluster drill likewise, and the health drill's SLO page must leave a
# journaled flight dump with a complete slow-trace waterfall.  --trace
# also prints the trace collector's tree (the experiment span, then
# every retained sampled request trace); each run's last line is its
# verdict.
trace-check:
	PYTHONPATH=src $(PYTHON) -m repro.experiments serving --trace --check --scale 0.25
	PYTHONPATH=src $(PYTHON) -m repro.experiments cluster --trace --check --scale 0.25
	PYTHONPATH=src $(PYTHON) -m repro.experiments health --check --scale 0.5

# Reshard gate: live prime-ladder resize under zipfian traffic; exits
# nonzero unless the reshard contract holds (zero key loss, bounded
# in-flight moves, Figure 5 ordering preserved post-resize).
reshard-check:
	PYTHONPATH=src $(PYTHON) -m repro.experiments reshard --check

# Online-reshard benchmark: migration drain rate + during-migration
# throughput; writes BENCH_reshard.json at the root.
reshard-bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_reshard.py -q -s

# Cluster gate: the cluster and store test suites, then the multi-node
# drill — kill the hottest node under live zipfian traffic, serve
# through the outage on quorum reads, recover with bounded
# re-replication; exits nonzero unless the cluster contract holds (zero
# key loss, no failed reads during the outage, budgeted drain chunks,
# Figure 5 ordering on the composed map).
cluster-check:
	PYTHONPATH=src $(PYTHON) -m pytest tests/cluster tests/store -q
	PYTHONPATH=src $(PYTHON) -m repro.experiments cluster --check

# Cluster benchmark: healthy-ring replicated-op throughput, during-
# loss rps and simulated p99, re-replication drain rate; writes
# BENCH_cluster.json at the root.
cluster-bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_cluster.py -q -s

# Attack/defense drill: black-box cracks per scheme, hostile-trace
# page, keyed rotation; exits nonzero unless the adversary contract
# holds (exact linear recovery, >=5x prime probe cost, zero-loss
# rotation back to green).
adversary-check:
	PYTHONPATH=src $(PYTHON) -m repro.experiments adversary --check

# Attack-economics benchmark: probes-to-crack per scheme and wall-time
# from adversarial page to journaled mitigation; writes
# BENCH_adversary.json at the root.
adversary-bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_adversary.py -q -s

# Federation drill: cluster-wide quantile merging, federated-vs-local
# paging, TSDB retention, scrape overhead; exits nonzero unless every
# contract check holds.
fed-check:
	PYTHONPATH=src $(PYTHON) -m repro.experiments federation --check

# Telemetry-plane benchmark: scrape sweep rate, merge cost per series,
# in-memory TSDB append throughput; writes BENCH_fed.json at the root.
fed-bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_fed.py -q -s

# Bench-regression gate: compare the current BENCH_*.json headline
# metrics against the BENCH_history.json trajectory (median of prior
# runs, noise floor, Mann-Kendall trend pass over the full series);
# clean runs append themselves to the history.
bench-check:
	PYTHONPATH=src $(PYTHON) -m repro.obs.benchguard

# Theil-Sen slope table for every BENCH_history series (read-only).
bench-trend:
	PYTHONPATH=src $(PYTHON) -m repro.obs.benchguard --trend-table

# Render the health dashboard (self-contained HTML) from whatever
# BENCH_*.json / history live at the root.
dash:
	PYTHONPATH=src $(PYTHON) -m repro.obs.dash --bench-root . --out dashboard.html

# Regenerate every registered table/figure through the uniform
# registry CLI, persisting results under $(CACHE_DIR) so re-runs are
# incremental; artifacts land in artifacts/<name>.json.
figures:
	@mkdir -p artifacts
	@set -e; for exp in $$(PYTHONPATH=src $(PYTHON) -m repro.experiments list | cut -d' ' -f1); do \
		echo "== $$exp"; \
		PYTHONPATH=src $(PYTHON) -m repro.experiments $$exp \
			--scale $(SCALE) --jobs $(JOBS) --cache-dir $(CACHE_DIR) \
			--artifact artifacts/$$exp.json >/dev/null; \
	done
	@echo "artifacts written to artifacts/"

# Full-scale regeneration of every paper table and figure (~minutes).
eval:
	$(PYTHON) examples/paper_evaluation.py --scale 1.0

# Machine-generated markdown report (reduced scale for quick turnaround).
report:
	$(PYTHON) -m repro.reporting.report --scale 0.5 > report.md

examples:
	for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache report.md \
		.repro-cache artifacts dashboard.html
	find . -name __pycache__ -type d -exec rm -rf {} +
