"""The drills' latency tails come from each phase's own ops.

A :class:`~repro.cluster.Cluster` keeps only its last
``LATENCY_WINDOW`` simulated latencies.  The cluster drill's during-loss
p99 and the federation drill's per-sweep sketches and exact p99 must
not depend on that bound: shrunk far below the run's op count, they
read what the default window does.
"""

from repro.cluster import engine
from repro.experiments import cluster, federation


def test_drill_tails_ignore_the_latency_window(monkeypatch):
    loss_p99 = cluster.measure("pmod+pmod", 4000)["during_loss"]["sim_p99_s"]
    fed = federation.measure("healthy", 2000)
    monkeypatch.setattr(engine, "LATENCY_WINDOW", 512)
    small_loss_p99 = cluster.measure(
        "pmod+pmod", 4000)["during_loss"]["sim_p99_s"]
    small_fed = federation.measure("healthy", 2000)
    assert small_loss_p99 == loss_p99 > 0.0
    assert small_fed["tsdb"]["p99_s"] == fed["tsdb"]["p99_s"] > 0.0
    assert small_fed["exact_p99_s"] == fed["exact_p99_s"] > 0.0
