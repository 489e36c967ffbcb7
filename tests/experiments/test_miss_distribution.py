"""Tests for Figure 13 (tree's per-set miss distribution)."""

import pytest

from repro.cpu import MachineConfig, build_hierarchy
from repro.engine import ExperimentContext, SimulationEngine, run_experiment
from repro.experiments import miss_distribution
from repro.experiments.common import RunConfig
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def results():
    return miss_distribution.run(RunConfig(scale=0.25))


class TestFigure13:
    def test_base_concentrates_misses(self, results):
        """Figure 13a: the vast majority of misses sit in ~10% of sets."""
        assert results["base"].top_fraction_share(0.1) > 0.5

    def test_pmod_flattens_distribution(self, results):
        """Figure 13b: pMod spreads the misses almost uniformly."""
        assert results["pmod"].top_fraction_share(0.1) < 0.3

    def test_pmod_removes_misses(self, results):
        assert results["pmod"].total < results["base"].total

    def test_coefficient_of_variation_drops(self, results):
        assert (results["pmod"].coefficient_of_variation()
                < results["base"].coefficient_of_variation() / 2)

    def test_render(self, results):
        out = miss_distribution.render(results)
        assert "Figure 13" in out
        assert "top 10%" in out


class TestCustomWorkload:
    def test_uniform_app_shows_no_concentration(self):
        results = miss_distribution.run(RunConfig(scale=0.1), workload="lu")
        assert results["base"].top_fraction_share(0.1) < 0.4


class TestEngineMachine:
    def test_arrays_come_from_the_engine_machine(self):
        """A non-default engine's per-set arrays are its own machine's,
        not Table 3's (they are cached under the engine's key)."""
        machine = MachineConfig(l2_bytes=256 * 1024)
        engine = SimulationEngine(RunConfig(scale=0.05), machine=machine)
        artifact = run_experiment("miss_distribution",
                                  ExperimentContext(engine=engine))
        trace = get_workload("tree").trace(scale=0.05, seed=0)
        for scheme, counts in artifact["data"]["distributions"].items():
            hierarchy = build_hierarchy(scheme, machine)
            for address, is_write in zip(trace.addresses, trace.is_write):
                hierarchy.access(int(address), bool(is_write))
            assert counts == hierarchy.l2.stats.set_misses.tolist(), scheme
