"""Tests for the one-shot markdown report."""

import pytest

from repro.reporting.report import full_report


@pytest.fixture(scope="module")
def report(paper_engine):
    return full_report(paper_engine)


class TestFullReport:
    def test_contains_every_section(self, report):
        for heading in ("Table 1", "Table 2", "Table 3", "Table 4",
                        "Figure 7", "Figure 8", "Figure 9", "Figure 10",
                        "Figure 11", "Figure 12"):
            assert heading in report, heading

    def test_mentions_config(self, report, paper_engine):
        assert f"Trace scale {paper_engine.config.scale}" in report

    def test_is_markdown(self, report):
        assert report.startswith("# ")
        assert "```" in report

    def test_contains_all_apps(self, report):
        from repro.workloads import all_workload_names
        for app in all_workload_names():
            assert app in report, app
