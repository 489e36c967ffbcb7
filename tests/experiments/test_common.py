"""Tests for the shared experiment infrastructure."""

import pytest

from repro.engine import SimulationEngine
from repro.experiments.common import RunConfig


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.scale == 1.0
        assert cfg.skew_replacement == "enru"


class TestResultStore:
    """The result / speedup / miss_ratio surface the figure builders
    read from the engine."""

    @pytest.fixture
    def store(self):
        return SimulationEngine(RunConfig(scale=0.05))

    def test_caches_results(self, store):
        first = store.result("lu", "base")
        second = store.result("lu", "base")
        assert first is second  # same object: simulated once

    def test_distinct_schemes_distinct_runs(self, store):
        assert store.result("lu", "base") is not store.result("lu", "pmod")

    def test_speedup_of_base_is_one(self, store):
        assert store.speedup("lu", "base") == 1.0

    def test_miss_ratio_of_base_is_one(self, store):
        assert store.miss_ratio("lu", "base") == 1.0

    def test_miss_ratio_positive(self, store):
        assert store.miss_ratio("lu", "pmod") > 0

    def test_unknown_workload_raises(self, store):
        with pytest.raises(KeyError):
            store.result("linpack", "base")

    def test_unknown_scheme_raises(self, store):
        with pytest.raises(KeyError):
            store.result("lu", "victim")
