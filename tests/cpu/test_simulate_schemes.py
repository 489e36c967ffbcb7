"""simulate_schemes (one shared L1 pass, L2s resolved per request)
against the per-access hierarchy oracle, simulate_scheme_reference; and
the experiments built on the same pipeline against per-access runs."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CacheHierarchy, SetAssociativeCache
from repro.cpu import (
    SCHEMES,
    MachineConfig,
    Simulator,
    build_hierarchy,
    build_l1,
    build_l2,
    simulate_scheme,
    simulate_scheme_reference,
    simulate_schemes,
)
from repro.cpu.simulator import l2_request_stream, l2_set_counters
from repro.engine import RunConfig
from repro.experiments import design_space, l1_hashing
from repro.hashing import make_indexing
from repro.memory import DramModel
from repro.trace import Trace, TraceMetadata
from repro.workloads import all_workload_names, get_workload

SCALE = 0.01
#: Small enough that dirty L1 victims miss L2 often, so the DRAM
#: victim-fill branches run on real traces too.
SMALL = MachineConfig(l1_bytes=4 * 1024, l2_bytes=32 * 1024)


def workload_trace(name, seed=0):
    return get_workload(name).trace(scale=SCALE, seed=seed)


def assert_matches_reference(trace, schemes=SCHEMES, **kwargs):
    fast = simulate_schemes(trace, schemes, **kwargs)
    assert list(fast) == list(schemes)
    for scheme in schemes:
        reference = simulate_scheme_reference(trace, scheme, **kwargs)
        assert asdict(fast[scheme]) == asdict(reference), scheme


class TestEquivalence:
    @pytest.mark.parametrize("warmup", [0.0, 0.3])
    @pytest.mark.parametrize("workload", all_workload_names())
    def test_every_scheme_matches_reference(self, workload, warmup):
        assert_matches_reference(workload_trace(workload),
                                 warmup_fraction=warmup)

    @pytest.mark.parametrize("config", [
        MachineConfig(l2_bytes=256 * 1024),
        SMALL,
        MachineConfig(l1_bytes=8 * 1024, l2_bytes=64 * 1024,
                      l2_block_bytes=128),
    ], ids=["l2-256k", "small", "l2-128b-lines"])
    @pytest.mark.parametrize("warmup", [0.0, 0.3])
    def test_non_default_machine(self, config, warmup):
        for workload in ("tree", "mcf", "ft", "sparse"):
            assert_matches_reference(workload_trace(workload), config=config,
                                     warmup_fraction=warmup)

    @pytest.mark.parametrize("config", [None, SMALL], ids=["paper", "small"])
    def test_nrunrw_skew_replacement(self, config):
        for workload in ("tree", "mcf", "lu"):
            assert_matches_reference(workload_trace(workload),
                                     schemes=["skw", "skw+pdisp"],
                                     config=config,
                                     skew_replacement="nrunrw")

    def test_other_seeds(self):
        for seed in (1, 2):
            assert_matches_reference(workload_trace("applu", seed),
                                     config=SMALL, warmup_fraction=0.3)


# A = 0 and C = 8 KB share L1 set 0 but sit in different L2 sets;
# B_k = k * 128 KB share L1 set 0 *and* L2 set 0 with A.
A, C = 0, 8 * 1024
B = [k * 128 * 1024 for k in range(1, 5)]
#: Writes A, then pushes A's line out of the 4-way L2 set with B1..B4
#: while re-touching A between them so it stays (dirty) in the 2-way L1.
SETUP = [(C, False), (A, True)] + [
    access for b in B for access in ((A, False), (b, False))]


def hand_trace(final_address):
    """SETUP then one load that evicts dirty A from L1: A's victim
    write misses L2, the load's own demand read hits or misses."""
    accesses = SETUP + [(final_address, False)]
    return Trace("victim-fill",
                 np.array([a for a, _ in accesses], dtype=np.uint64),
                 np.array([w for _, w in accesses], dtype=bool),
                 TraceMetadata(mlp=1.0))


class TestVictimFillQuirk:
    """A dirty L1 victim whose write-allocate misses L2 is charged to
    DRAM only when the access's demand read misses L2 as well."""

    def final_outcome(self, trace):
        hierarchy = build_hierarchy("base")
        for address, is_write in zip(trace.addresses, trace.is_write):
            outcome = hierarchy.access(int(address), bool(is_write))
        return outcome, hierarchy

    def test_demand_hit_is_l2_level_and_never_charged(self):
        trace = hand_trace(C)  # C is still resident in L2
        outcome, hierarchy = self.final_outcome(trace)
        assert outcome.level == "l2"
        assert outcome.memory_reads == [A >> 6]  # recorded, not charged
        assert hierarchy.l2.stats.writes == 1
        reference = simulate_scheme_reference(trace, "base")
        assert simulate_scheme(trace, "base") == reference
        # C, A and B1..B4 reach DRAM once each; A's fill never does
        assert reference.dram_row_hits + reference.dram_row_misses == 6
        assert reference.l2_accesses == 8 and reference.l2_misses == 7

    def test_demand_miss_charges_the_fill_first(self):
        trace = hand_trace(2 * C)  # L1 set 0, an L2 set never touched
        outcome, _ = self.final_outcome(trace)
        assert outcome.level == "mem"
        assert outcome.memory_reads == [A >> 6, (2 * C) >> 6]
        reference = simulate_scheme_reference(trace, "base")
        assert simulate_scheme(trace, "base") == reference
        assert reference.dram_row_hits + reference.dram_row_misses == 8

    def test_stream_records_victim_before_demand(self):
        stream = l2_request_stream(hand_trace(C))
        last = len(SETUP)
        assert stream.access_index[-2:].tolist() == [last, last]
        assert stream.is_write[-2:].tolist() == [True, False]
        assert stream.blocks[-2:].tolist() == [A >> 6, C >> 6]


def per_access_stream(trace, config):
    """The L2 requests of a per-access build_l1 replay of ``trace``:
    (block, is_write, access index) of each, in program order."""
    l1_bits = config.l1_block_bytes.bit_length() - 1
    shift = config.l2_block_bytes.bit_length() - 1 - l1_bits
    l1 = build_l1(config)
    requests = []
    for i, (address, is_write) in enumerate(zip(trace.addresses.tolist(),
                                                trace.is_write.tolist())):
        result = l1.access(address >> l1_bits, is_write)
        if result.hit:
            continue
        if result.writeback:
            requests.append((result.victim_block >> shift, True, i))
        requests.append((address >> l1_bits >> shift, False, i))
    return requests


def stream_requests(stream):
    return list(zip(stream.blocks.tolist(), stream.is_write.tolist(),
                    stream.access_index.tolist()))


class TestRequestStream:
    """The numpy L1 pass emits exactly the requests of a per-access L1."""

    @pytest.mark.parametrize("workload", all_workload_names())
    def test_matches_per_access_l1(self, workload):
        trace = workload_trace(workload)
        for l1_assoc in (1, 2, 4, 8):
            config = MachineConfig(l1_assoc=l1_assoc)
            stream = l2_request_stream(trace, config)
            assert stream.blocks.dtype == np.uint64
            assert stream.access_index.dtype == np.int64
            assert stream_requests(stream) == per_access_stream(
                trace, config), l1_assoc

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4095), st.booleans()),
                    max_size=300),
           st.sampled_from([1, 2, 4, 8]),
           st.sampled_from([32, 64]))
    def test_random_traces_with_writes(self, accesses, l1_assoc, l2_line):
        # four L1 sets, so most misses evict
        config = MachineConfig(l1_bytes=4 * 32 * l1_assoc, l1_assoc=l1_assoc,
                               l2_block_bytes=l2_line)
        trace = Trace("random",
                      np.array([8 * a for a, _ in accesses], dtype=np.uint64),
                      np.array([w for _, w in accesses], dtype=bool))
        assert stream_requests(l2_request_stream(trace, config)) == (
            per_access_stream(trace, config))


class TestInterface:
    def test_one_scheme_case(self):
        trace = workload_trace("mcf")
        assert simulate_scheme(trace, "pmod") == simulate_schemes(
            trace, ["pmod"])["pmod"]

    def test_warmup_validated(self):
        trace = workload_trace("lu")
        for bad in (-0.1, 1.0):
            with pytest.raises(ValueError):
                simulate_schemes(trace, ["base"], warmup_fraction=bad)

    def test_unknown_scheme(self):
        with pytest.raises(KeyError):
            simulate_schemes(workload_trace("lu"), ["base", "nope"])

    def test_empty_trace(self):
        empty = Trace("empty", np.zeros(0, dtype=np.uint64),
                      np.zeros(0, dtype=bool))
        assert_matches_reference(empty)


def hierarchy_after(trace, hierarchy):
    """``hierarchy`` after the per-access run over ``trace``."""
    for address, is_write in zip(trace.addresses, trace.is_write):
        hierarchy.access(int(address), bool(is_write))
    return hierarchy


class TestSetCounters:
    """l2_set_counters behind one L1 pass equals the per-set stats of
    the per-access hierarchy."""

    @pytest.mark.parametrize("workload", ["tree", "lu", "mcf", "swim", "bt"])
    def test_every_scheme_matches_hierarchy_stats(self, workload):
        trace = workload_trace(workload)
        stream = l2_request_stream(trace)
        for scheme in SCHEMES:
            accesses, misses = l2_set_counters(build_l2(scheme), stream)
            stats = hierarchy_after(trace, build_hierarchy(scheme)).l2.stats
            assert accesses.tolist() == stats.set_accesses.tolist(), scheme
            assert misses.tolist() == stats.set_misses.tolist(), scheme

    def test_non_default_machine(self):
        trace = workload_trace("tree")
        stream = l2_request_stream(trace, SMALL)
        for scheme in ("base", "pmod", "skw+pdisp", "fa"):
            accesses, misses = l2_set_counters(build_l2(scheme, SMALL), stream)
            stats = hierarchy_after(trace,
                                    build_hierarchy(scheme, SMALL)).l2.stats
            assert accesses.tolist() == stats.set_accesses.tolist(), scheme
            assert misses.tolist() == stats.set_misses.tolist(), scheme


class TestL1Misses:
    """l1_hashing's miss counts (one fastsim call per L1 indexing) equal
    the L1 stats of a per-access hierarchy with that L1."""

    @pytest.mark.parametrize("workload", ["swim", "lu", "tree"])
    def test_matches_hierarchy_l1(self, workload):
        machine = MachineConfig.paper_default()
        keys = ("traditional", "xor", "pmod")
        fast = l1_hashing.l1_miss_comparison(
            RunConfig(scale=SCALE), apps=(workload,), l1_keys=keys)[workload]
        trace = workload_trace(workload)
        for key in keys:
            l1 = SetAssociativeCache(machine.l1_sets, machine.l1_assoc,
                                     make_indexing(key, machine.l1_sets))
            hierarchy = CacheHierarchy(l1, build_l2("base"),
                                       machine.l1_block_bytes,
                                       machine.l2_block_bytes)
            assert fast[key] == hierarchy_after(
                trace, hierarchy).l1.stats.misses, key


class TestDesignSpace:
    """design_space points equal Simulator over a hand-built hierarchy:
    the traditional L1 over an L2 of the given indexing and ways at
    constant capacity."""

    @staticmethod
    def reference(trace, key, assoc, machine):
        n_sets = machine.l2_blocks // assoc
        hierarchy = CacheHierarchy(
            build_l1(machine),
            SetAssociativeCache(n_sets, assoc, make_indexing(key, n_sets)),
            machine.l1_block_bytes, machine.l2_block_bytes)
        return Simulator(hierarchy, DramModel(machine.dram_config()),
                         machine).run(trace)

    @pytest.mark.parametrize("machine", [
        MachineConfig.paper_default(), SMALL], ids=["paper", "small"])
    def test_points_match_simulator(self, machine):
        for workload in ("tree", "mcf"):
            trace = workload_trace(workload)
            points = design_space.run(workload, RunConfig(scale=SCALE),
                                      associativities=(1, 2, 4, 8),
                                      machine=machine)
            assert len(points) == 16
            for point in points:
                expected = self.reference(trace, point.indexing, point.assoc,
                                          machine)
                assert point.l2_misses == expected.l2_misses, point
                assert point.cycles == expected.cycles, point

    def test_any_registered_indexing(self):
        """Keys outside the paper's four (make_indexing's whole registry)
        are swept too."""
        machine = MachineConfig.paper_default()
        trace = workload_trace("tree")
        keys = ("gf2", "xorfold", "multiplicative")
        points = design_space.run("tree", RunConfig(scale=SCALE),
                                  indexings=keys, associativities=(2, 4))
        assert [(p.indexing, p.assoc) for p in points] == [
            (key, assoc) for key in keys for assoc in (2, 4)]
        for point in points:
            expected = self.reference(trace, point.indexing, point.assoc,
                                      machine)
            assert point.l2_misses == expected.l2_misses, point
            assert point.cycles == expected.cycles, point
