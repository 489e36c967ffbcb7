"""Equivalence tests: fast path vs reference cache model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import FullyAssociativeCache, SetAssociativeCache
from repro.cache import fastsim
from repro.cache.fastsim import (
    lru_miss_mask,
    lru_writebacks,
    simulate_fully_associative_misses,
    simulate_misses,
    simulate_misses_reference,
)
from repro.hashing import (
    PrimeModuloIndexing,
    TraditionalIndexing,
    XorIndexing,
    make_indexing,
)


def reference_misses(indexing, blocks, assoc):
    cache = SetAssociativeCache(indexing.n_sets_physical, assoc, indexing)
    for b in blocks:
        cache.access(int(b))
    return cache.stats


class TestEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 4095), min_size=1, max_size=400),
        st.sampled_from(["traditional", "xor", "pmod", "pdisp"]),
        st.sampled_from([1, 2, 4]),
    )
    def test_matches_reference_model(self, blocks, key, assoc):
        indexing = make_indexing(key, 64)
        blocks = np.asarray(blocks, dtype=np.uint64)
        fast = simulate_misses(indexing, blocks, assoc)
        ref = reference_misses(make_indexing(key, 64), blocks, assoc)
        assert fast.misses == ref.misses
        assert np.array_equal(fast.set_accesses, ref.set_accesses)
        assert np.array_equal(fast.set_misses, ref.set_misses)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 2047), min_size=1, max_size=300),
           st.sampled_from([2, 8, 32]))
    def test_fa_matches_reference(self, blocks, capacity):
        blocks = np.asarray(blocks, dtype=np.uint64)
        fast = simulate_fully_associative_misses(blocks, capacity)
        ref = FullyAssociativeCache(capacity)
        for b in blocks:
            ref.access(int(b))
        assert fast.misses == ref.stats.misses

    def test_workload_scale_equivalence(self):
        """A real workload trace at modest scale: both paths agree."""
        from repro.workloads import get_workload
        trace = get_workload("tree").trace(scale=0.05, seed=0)
        blocks = trace.block_addresses(64)
        indexing = PrimeModuloIndexing(2048)
        fast = simulate_misses(indexing, blocks, 4)
        ref = reference_misses(PrimeModuloIndexing(2048), blocks, 4)
        assert fast.misses == ref.misses


class TestVectorizedVsReference:
    """The numpy path must be bit-identical to the per-access loop."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 1 << 16), min_size=1, max_size=600),
        st.sampled_from(["traditional", "xor", "pmod", "pdisp"]),
        st.sampled_from([1, 2, 4, 8]),
    )
    def test_bit_identical_to_loop(self, blocks, key, assoc):
        indexing = make_indexing(key, 128)
        blocks = np.asarray(blocks, dtype=np.uint64)
        fast = simulate_misses(indexing, blocks, assoc)
        ref = simulate_misses_reference(indexing, blocks, assoc)
        assert fast.misses == ref.misses
        assert np.array_equal(fast.set_accesses, ref.set_accesses)
        assert np.array_equal(fast.set_misses, ref.set_misses)

    def test_strided_pathologies(self):
        """Power-of-two strides concentrate sets; the windows get long
        and exercise the chunked band loop."""
        indexing = make_indexing("traditional", 2048)
        oracle = make_indexing("traditional", 2048)
        for stride in (2048, 4096, 1024):
            blocks = (np.arange(30000, dtype=np.uint64) * stride) % (1 << 24)
            fast = simulate_misses(indexing, blocks, 4)
            ref = simulate_misses_reference(oracle, blocks, 4)
            assert fast.misses == ref.misses
            assert np.array_equal(fast.set_misses, ref.set_misses)

    def test_workload_trace_identical(self):
        """A real workload trace at the paper's L2 geometry."""
        from repro.workloads import get_workload
        trace = get_workload("tree").trace(scale=0.1, seed=0)
        blocks = trace.block_addresses(64)
        fast = simulate_misses(PrimeModuloIndexing(2048), blocks, 4)
        ref = simulate_misses_reference(PrimeModuloIndexing(2048), blocks, 4)
        assert fast.misses == ref.misses
        assert np.array_equal(fast.set_accesses, ref.set_accesses)
        assert np.array_equal(fast.set_misses, ref.set_misses)


class TestPerAccessMask:
    """lru_miss_mask agrees with the cache models access by access, not
    only in its miss count."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 4095), min_size=1, max_size=400),
        st.sampled_from(["traditional", "xor", "pmod", "pdisp"]),
        st.sampled_from([1, 2, 4, 8]),
    )
    def test_set_associative_hit_sequence(self, blocks, key, assoc):
        indexing = make_indexing(key, 64)
        blocks = np.asarray(blocks, dtype=np.uint64)
        mask = lru_miss_mask(blocks, indexing.index_array(blocks), assoc)
        cache = SetAssociativeCache(64, assoc, make_indexing(key, 64))
        assert mask.tolist() == [not cache.access(int(b)).hit
                                 for b in blocks]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 2047), min_size=1, max_size=300),
           st.sampled_from([1, 2, 8, 32]))
    def test_fully_associative_hit_sequence(self, blocks, capacity):
        blocks = np.asarray(blocks, dtype=np.uint64)
        mask = lru_miss_mask(blocks, np.zeros(len(blocks), dtype=np.int64),
                             capacity)
        cache = FullyAssociativeCache(capacity)
        assert mask.tolist() == [not cache.access(int(b)).hit
                                 for b in blocks]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_long_random_streams(self, seed):
        """Skewed reuse over a footprint a few times the capacity, so
        reuse windows are long and many of them are ambiguous."""
        rng = np.random.default_rng(seed)
        blocks = (rng.zipf(1.3, size=6000) % 3000).astype(np.uint64)
        indexing = PrimeModuloIndexing(256)
        mask = lru_miss_mask(blocks, indexing.index_array(blocks), 4)
        cache = SetAssociativeCache(256, 4, PrimeModuloIndexing(256))
        assert mask.tolist() == [not cache.access(int(b)).hit
                                 for b in blocks]
        mask = lru_miss_mask(blocks, np.zeros(len(blocks), dtype=np.int64),
                             512)
        fa = FullyAssociativeCache(512)
        assert mask.tolist() == [not fa.access(int(b)).hit for b in blocks]


class TestWritebacks:
    """lru_writebacks agrees with a write-back SetAssociativeCache on
    every access's hit, writeback and victim."""

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 255), st.booleans()),
                 max_size=300),
        st.sampled_from([1, 4, 16]),
        st.sampled_from([1, 2, 3, 8]),
    )
    def test_matches_cache_model(self, accesses, n_sets, assoc):
        blocks = np.array([b for b, _ in accesses], dtype=np.uint64)
        writes = np.array([w for _, w in accesses], dtype=bool)
        indexing = TraditionalIndexing(n_sets)
        miss, writeback, victims = lru_writebacks(
            blocks, indexing.index_array(blocks), assoc, writes)
        cache = SetAssociativeCache(n_sets, assoc, TraditionalIndexing(n_sets))
        results = [cache.access(b, w) for b, w in accesses]
        assert miss.tolist() == [not r.hit for r in results]
        assert writeback.tolist() == [r.writeback for r in results]
        assert victims.tolist() == [r.victim_block for r in results
                                    if r.writeback]

    @pytest.mark.parametrize("assoc", [2, 3, 4])
    def test_victim_found_far_back(self, assoc):
        """One set: ``assoc - 1`` blocks, one block touched many times,
        then new blocks; the first new block's victim is the stream's
        first access, reached only by a long backward scan."""
        for repeats in range(1, 70):
            accesses = ([(10 + k, k == 0) for k in range(assoc - 1)]
                        + [(99, False)] * repeats + [(200, False), (201, True)])
            blocks = np.array([b for b, _ in accesses], dtype=np.uint64)
            writes = np.array([w for _, w in accesses], dtype=bool)
            miss, writeback, victims = lru_writebacks(
                blocks, np.zeros(len(blocks), dtype=np.int64), assoc, writes)
            cache = SetAssociativeCache(1, assoc, TraditionalIndexing(1))
            results = [cache.access(b, w) for b, w in accesses]
            assert writeback.tolist() == [r.writeback for r in results]
            assert victims.tolist() == [r.victim_block for r in results
                                        if r.writeback] == [10]


class TestBatchLimit:
    """Batching only bounds scratch memory: a one-element batch limit
    gives the same masks as the default one."""

    @pytest.mark.parametrize("shape", ["l1", "l2"])
    def test_masks_independent_of_batch_limit(self, monkeypatch, shape):
        from repro.workloads import get_workload
        trace = get_workload("tree").trace(scale=0.05, seed=0)
        if shape == "l1":  # 32 B lines, 256 sets, 2-way
            blocks, indexing, assoc = (trace.block_addresses(32),
                                       TraditionalIndexing(256), 2)
        else:  # 64 B lines, 2048 prime-modulo sets, 4-way
            blocks, indexing, assoc = (trace.block_addresses(64),
                                       PrimeModuloIndexing(2048), 4)
        sets = indexing.index_array(blocks)

        def masks():
            return (lru_miss_mask(blocks, sets, assoc),
                    *lru_writebacks(blocks, sets, assoc, trace.is_write))

        default = masks()
        assert default[0].any() and default[1].any()
        monkeypatch.setattr(fastsim, "_BATCH_ELEMENT_LIMIT", 1)
        for limited, expected in zip(masks(), default):
            assert limited.tolist() == expected.tolist()


class TestInterface:
    def test_validation(self):
        idx = TraditionalIndexing(16)
        with pytest.raises(ValueError):
            simulate_misses(idx, np.zeros(4, dtype=np.uint64), 0)
        with pytest.raises(ValueError):
            simulate_misses(idx, np.zeros((2, 2), dtype=np.uint64), 2)
        with pytest.raises(ValueError):
            simulate_fully_associative_misses(np.zeros(4, dtype=np.uint64), 0)

    def test_counters_optional(self):
        idx = XorIndexing(16)
        result = simulate_misses(idx, np.arange(100, dtype=np.uint64), 2,
                                 per_set_counters=False)
        assert result.set_accesses is None
        assert result.misses > 0

    def test_derived_metrics(self):
        idx = TraditionalIndexing(16)
        result = simulate_misses(idx, np.zeros(10, dtype=np.uint64), 2)
        assert result.hits == 9
        assert result.miss_rate == pytest.approx(0.1)

    def test_is_actually_faster(self):
        """The fast path must beat the reference model on a real sweep."""
        import time
        idx_fast = PrimeModuloIndexing(2048)
        idx_ref = PrimeModuloIndexing(2048)
        rng = np.random.default_rng(1)
        blocks = rng.integers(0, 1 << 20, size=60000, dtype=np.uint64)
        t0 = time.perf_counter()
        simulate_misses(idx_fast, blocks, 4, per_set_counters=False)
        fast_t = time.perf_counter() - t0
        t0 = time.perf_counter()
        reference_misses(idx_ref, blocks, 4)
        ref_t = time.perf_counter() - t0
        assert fast_t < ref_t
