"""Admission control: token bucket and queue-depth cap semantics."""

import pytest

from repro.serve import (
    REASON_QUEUE,
    REASON_RATE,
    AdmissionConfig,
    AdmissionController,
)


def controller(**kwargs):
    return AdmissionController(AdmissionConfig(**kwargs))


class TestConfig:
    def test_defaults_are_open(self):
        config = AdmissionConfig()
        assert config.rate is None
        assert config.max_queue_depth >= 1

    @pytest.mark.parametrize("kwargs", [
        {"rate": 0.0}, {"rate": -5.0}, {"burst": 0}, {"max_queue_depth": 0},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionConfig(**kwargs)


class TestTokenBucket:
    def test_burst_then_rate_limited(self):
        gate = controller(rate=100.0, burst=5)
        assert [gate.admit(0, 0.0) for _ in range(5)] == [None] * 5
        assert gate.admit(0, 0.0) == REASON_RATE

    def test_refill_restores_admission(self):
        gate = controller(rate=100.0, burst=1)
        assert gate.admit(0, 0.0) is None
        assert gate.admit(0, 0.0) == REASON_RATE
        assert gate.admit(0, 0.01) is None  # exactly one token at 100/s

    def test_refill_caps_at_burst(self):
        gate = controller(rate=1000.0, burst=3)
        # 100 s idle would be 100k tokens uncapped.
        outcomes = [gate.admit(0, 100.0) for _ in range(4)]
        assert outcomes == [None, None, None, REASON_RATE]

    def test_rate_none_never_rate_limits(self):
        gate = controller(rate=None, burst=1)
        assert all(gate.admit(0, 0.0) is None for _ in range(1000))


class TestQueueDepth:
    def test_depth_cap_rejects(self):
        gate = controller(rate=None, max_queue_depth=10)
        assert gate.admit(9, 0.0) is None
        assert gate.admit(10, 0.0) == REASON_QUEUE
        assert gate.admit(11, 0.0) == REASON_QUEUE

    def test_depth_check_runs_before_tokens(self):
        """A queue-full reject must not burn rate budget."""
        gate = controller(rate=100.0, burst=1, max_queue_depth=5)
        assert gate.admit(5, 0.0) == REASON_QUEUE
        assert gate.admit(0, 0.0) is None  # the token survived the reject


class TestStats:
    def test_stats_track_every_outcome(self):
        gate = controller(rate=100.0, burst=2, max_queue_depth=4)
        gate.admit(0, 0.0)
        gate.admit(0, 0.0)
        gate.admit(0, 0.0)  # rate limited
        gate.admit(4, 0.0)  # queue full
        assert gate.stats() == {
            "admitted": 2,
            "rejected_rate_limited": 1,
            "rejected_queue_full": 1,
        }
