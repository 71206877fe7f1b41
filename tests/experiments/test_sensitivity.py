"""Tests for the capacity-sensitivity experiment."""

import pytest

from repro.experiments import sensitivity
from repro.experiments.common import RunConfig


class TestSensitivity:
    @pytest.fixture(scope="class")
    def points(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sensitivity, "DEFAULT_CAPACITIES_KB",
                          (256, 512, 1024))
            return sensitivity.run("tree", RunConfig(scale=0.15))

    def test_one_point_per_capacity(self, points):
        assert [p.capacity_kb for p in points] == [256, 512, 1024]

    def test_gap_present_at_paper_geometry(self, points):
        by_cap = {p.capacity_kb: p for p in points}
        assert by_cap[512].miss_ratio < 0.7

    def test_base_misses_decrease_with_capacity(self, points):
        misses = [p.base_misses for p in points]
        assert misses == sorted(misses, reverse=True)

    def test_rejects_awkward_capacity(self, monkeypatch):
        monkeypatch.setattr(sensitivity, "DEFAULT_CAPACITIES_KB", (300,))
        with pytest.raises(ValueError, match="power"):
            sensitivity.run("lu", RunConfig(scale=0.05))

    def test_uniform_app_shows_no_gap(self, monkeypatch):
        monkeypatch.setattr(sensitivity, "DEFAULT_CAPACITIES_KB", (512,))
        points = sensitivity.run("lu", RunConfig(scale=0.1))
        assert points[0].miss_ratio == pytest.approx(1.0, abs=0.05)

    def test_render(self, points):
        out = sensitivity.render(points)
        assert "tree" in out and "512" in out
