"""The cluster drill's latency tail comes from each phase's own ops.

A :class:`~repro.cluster.Cluster` keeps only its last
``LATENCY_WINDOW`` simulated latencies.  The cluster drill's during-loss
p99 must not depend on that bound: shrunk far below the run's op count,
it reads what the default window does.
"""

from repro.cluster import engine
from repro.experiments import cluster


def test_drill_tails_ignore_the_latency_window(monkeypatch):
    loss_p99 = cluster.measure("pmod+pmod", 4000)["during_loss"]["sim_p99_s"]
    monkeypatch.setattr(engine, "LATENCY_WINDOW", 512)
    small_loss_p99 = cluster.measure(
        "pmod+pmod", 4000)["during_loss"]["sim_p99_s"]
    assert small_loss_p99 == loss_p99 > 0.0
