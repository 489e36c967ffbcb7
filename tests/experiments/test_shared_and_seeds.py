"""Tests for the shared-cache and seed-robustness experiments."""

import pytest

from repro.cpu import MachineConfig, simulate_scheme_reference
from repro.engine import SimulationEngine
from repro.experiments import seeds, shared_cache
from repro.experiments.common import RunConfig
from repro.trace.multiprogram import interleave_traces
from repro.workloads import get_workload

#: A non-default machine: experiments must simulate it, not Table 3.
SMALL = MachineConfig(l1_bytes=4 * 1024, l2_bytes=32 * 1024)


class TestSharedCache:
    @pytest.fixture(scope="class")
    def results(self):
        rows = shared_cache.run(pairs=(("tree", "swim"),),
                                config=RunConfig(scale=0.2),
                                schemes=("base", "pmod"))
        return {r.scheme: r for r in rows}

    def test_pmod_still_wins_with_corunner(self, results):
        """The conflict victim keeps most of its win while timesharing."""
        assert results["pmod"].combined_misses < \
            results["base"].combined_misses * 0.8

    def test_interference_bounded(self, results):
        for scheme, r in results.items():
            assert 0.8 < r.interference_factor < 2.0, scheme

    def test_render(self, results):
        out = shared_cache.render(list(results.values()))
        assert "tree+swim" in out

    def test_runs_on_the_given_machine(self):
        config = RunConfig(scale=0.02)
        rows = shared_cache.run(pairs=(("tree", "lu"),), config=config,
                                schemes=("base", "skw"), machine=SMALL)
        first = get_workload("tree").trace(scale=0.02, seed=0)
        second = get_workload("lu").trace(scale=0.02, seed=1)
        combined = interleave_traces(first, second, quantum=2048)
        for row in rows:
            def misses(trace):
                return simulate_scheme_reference(trace, row.scheme,
                                                 SMALL).l2_misses
            assert row.combined_misses == misses(combined), row.scheme
            assert row.solo_misses_sum == misses(first) + misses(second)


class TestSeedRobustness:
    @pytest.fixture(scope="class")
    def spreads(self):
        return {(s.workload, s.scheme): s
                for s in seeds.run(workloads=("tree", "lu"),
                                   schemes=("pmod",),
                                   seeds=(0, 1), scale=0.2)}

    def test_tree_wins_under_every_seed(self, spreads):
        assert spreads[("tree", "pmod")].minimum > 1.5

    def test_lu_neutral_under_every_seed(self, spreads):
        s = spreads[("lu", "pmod")]
        assert 0.97 < s.minimum and s.maximum < 1.03

    def test_spread_is_small(self, spreads):
        for key, s in spreads.items():
            assert s.relative_spread < 0.15, key

    def test_render(self, spreads):
        out = seeds.render(list(spreads.values()))
        assert "spread" in out

    def test_runs_on_the_given_machine(self):
        [spread] = seeds.run(workloads=("mcf",), schemes=("pmod",),
                             seeds=(0, 1), scale=0.02,
                             engine=SimulationEngine(machine=SMALL))
        for seed, speedup in zip((0, 1), spread.speedups):
            trace = get_workload("mcf").trace(scale=0.02, seed=seed)
            base, pmod = (simulate_scheme_reference(trace, scheme, SMALL)
                          for scheme in ("base", "pmod"))
            assert speedup == pmod.speedup_over(base), seed
