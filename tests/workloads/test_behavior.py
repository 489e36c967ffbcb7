"""Behavioral spot-checks of individual workload structures."""

import numpy as np

from repro.cpu import build_l2, simulate_scheme
from repro.cpu.simulator import l2_request_stream, l2_set_counters
from repro.workloads import get_workload
from repro.workloads.patterns import (
    L2_BLOCK,
    L2_SETS,
    PMOD_BAD_STRIDE_BLOCKS,
    XOR_BAD_STRIDE_BLOCKS,
)

SCALE = 0.25


def tree_set_misses(scheme):
    """Per-set L2 misses of ``scheme`` behind the L1, over tree."""
    trace = get_workload("tree").trace(scale=SCALE, seed=0)
    return l2_set_counters(build_l2(scheme), l2_request_stream(trace))[1]


class TestTree:
    def test_misses_concentrated_under_base(self):
        """Figure 13a: the vast majority of tree's misses land in a
        small fraction of the traditional sets."""
        misses = np.sort(tree_set_misses("base"))[::-1]
        top_tenth = misses[: L2_SETS // 10].sum()
        assert top_tenth / misses.sum() > 0.5

    def test_pmod_flattens_the_distribution(self):
        """Figure 13b: under pMod the per-set miss spread collapses."""
        base, pmod = tree_set_misses("base"), tree_set_misses("pmod")
        cv_base = base.std() / base.mean()
        cv_pmod = pmod.std() / pmod.mean()
        assert cv_pmod < cv_base / 3

    def test_large_pmod_speedup(self):
        trace = get_workload("tree").trace(scale=SCALE, seed=0)
        base = simulate_scheme(trace, "base")
        pmod = simulate_scheme(trace, "pmod")
        assert pmod.speedup_over(base) > 1.5


class TestMcf:
    def test_hot_lines_are_struct_aligned(self):
        trace = get_workload("mcf").trace(scale=SCALE, seed=0)
        blocks = trace.addresses >> np.uint64(6)
        # The chase component lives below the streaming arrays' base.
        chase = blocks[trace.addresses < (1 << 27)]
        assert len(chase) > 0
        assert np.all(chase % 8 == 0)  # 512-byte structs -> block % 8 == 0


class TestSparse:
    def test_contains_adversarial_strides(self):
        trace = get_workload("sparse").trace(scale=SCALE, seed=0)
        blocks = (trace.addresses >> np.uint64(6)).astype(np.int64)
        # Walk components live at very high bases; check their
        # *in-trace-order* stride is the adversarial one.
        pmod_walk = blocks[(blocks >= (1 << 32) // L2_BLOCK)
                           & (blocks < (1 << 34) // L2_BLOCK)]
        xor_walk = blocks[blocks >= (1 << 34) // L2_BLOCK]
        assert len(pmod_walk) > 0 and len(xor_walk) > 0
        assert PMOD_BAD_STRIDE_BLOCKS in np.diff(pmod_walk)
        assert XOR_BAD_STRIDE_BLOCKS in np.diff(xor_walk)

    def test_pmod_pays_small_penalty(self):
        """Figure 8: pMod slows sparse slightly — and only sparse."""
        trace = get_workload("sparse").trace(scale=SCALE, seed=0)
        base = simulate_scheme(trace, "base")
        pmod = simulate_scheme(trace, "pmod")
        slowdown = 1.0 / pmod.speedup_over(base)
        assert 1.0 < slowdown < 1.10


class TestMst:
    def test_only_skewed_helps(self):
        """Section 5.3: 'with cg and mst, only the skewed associative
        schemes are able to obtain speedups'.  Needs several passes of
        the over-capacity sweep, hence the larger scale."""
        trace = get_workload("mst").trace(scale=0.8, seed=0)
        base = simulate_scheme(trace, "base")
        pmod = simulate_scheme(trace, "pmod")
        skw = simulate_scheme(trace, "skw")
        assert abs(pmod.speedup_over(base) - 1.0) < 0.05
        assert skw.speedup_over(base) > 1.05


class TestBt:
    def test_column_walks_alias_one_set(self):
        trace = get_workload("bt").trace(scale=SCALE, seed=0)
        blocks = trace.addresses >> np.uint64(6)
        solves = blocks[trace.addresses < (1 << 26)]
        # Consecutive same-column accesses differ by exactly 2048 blocks.
        deltas = np.diff(solves.astype(np.int64))
        assert (deltas == 2048).sum() > len(solves) * 0.5

    def test_eight_way_barely_helps(self):
        """Section 5.2: doubling associativity at the same size is not
        an effective way to eliminate these conflicts."""
        trace = get_workload("bt").trace(scale=SCALE, seed=0)
        base = simulate_scheme(trace, "base")
        eight = simulate_scheme(trace, "8way")
        pmod = simulate_scheme(trace, "pmod")
        assert eight.speedup_over(base) < 1.05
        assert pmod.speedup_over(base) > 1.2
