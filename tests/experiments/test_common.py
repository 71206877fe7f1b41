"""Tests for the shared experiment infrastructure."""

from repro.experiments.common import RunConfig


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.scale == 1.0
        assert cfg.skew_replacement == "enru"

