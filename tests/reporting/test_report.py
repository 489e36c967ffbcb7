"""Tests for the one-shot markdown report."""

import pytest

from repro.cpu import SCHEMES
from repro.engine import RunConfig, SimulationEngine
from repro.reporting.report import full_report
from repro.workloads import all_workload_names


@pytest.fixture(scope="module")
def report():
    engine = SimulationEngine(RunConfig(scale=0.1))
    engine.run_grid(all_workload_names(), SCHEMES)
    return full_report(engine)


class TestFullReport:
    def test_contains_every_section(self, report):
        for heading in ("Table 1", "Table 2", "Table 3", "Table 4",
                        "Figure 7", "Figure 8", "Figure 9", "Figure 10",
                        "Figure 11", "Figure 12"):
            assert heading in report, heading

    def test_mentions_config(self, report):
        assert "Trace scale 0.1" in report

    def test_is_markdown(self, report):
        assert report.startswith("# ")
        assert "```" in report

    def test_contains_all_apps(self, report):
        from repro.workloads import all_workload_names
        for app in all_workload_names():
            assert app in report, app
