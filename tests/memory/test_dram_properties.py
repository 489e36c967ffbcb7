"""Property tests on the DRAM model's timing invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import DramConfig, DramModel

BLOCKS = st.lists(st.integers(0, 1 << 20), min_size=1, max_size=200)


class TestLatencyBounds:
    @settings(max_examples=40, deadline=None)
    @given(BLOCKS)
    def test_read_latency_never_below_row_hit(self, blocks):
        dram = DramModel()
        now = 0.0
        for block in blocks:
            latency = dram.service(now, block)
            assert latency >= dram.config.row_hit_cycles
            now += 1.0

    @settings(max_examples=40, deadline=None)
    @given(BLOCKS)
    def test_unqueued_latency_bounded_by_row_miss(self, blocks):
        """With requests spaced beyond the bus occupancy there is no
        queueing, so every latency is exactly hit or miss."""
        dram = DramModel()
        now = 0.0
        cfg = dram.config
        for block in blocks:
            latency = dram.service(now, block)
            assert latency in (cfg.row_hit_cycles, cfg.row_miss_cycles)
            now += cfg.bus_cycles_per_block + 1

    @settings(max_examples=40, deadline=None)
    @given(BLOCKS)
    def test_accounting_identities(self, blocks):
        dram = DramModel()
        for i, block in enumerate(blocks):
            dram.service(float(i * 500), block, is_write=(i % 3 == 0))
        stats = dram.stats
        assert stats.reads + stats.writes == len(blocks)
        # Only reads touch the row buffers in this model.
        assert stats.row_hits + stats.row_misses == stats.reads

    def test_row_hit_sequence_is_deterministic(self):
        a, b = DramModel(), DramModel()
        rng = np.random.default_rng(3)
        for i, block in enumerate(rng.integers(0, 4096, size=500)):
            la = a.service(float(i), int(block))
            lb = b.service(float(i), int(block))
            assert la == lb


class TestChannelMapping:
    def test_blocks_cover_all_channels_and_banks(self):
        dram = DramModel(DramConfig(channels=2, banks_per_channel=8))
        seen = set()
        for block in range(256):
            channel, bank, _ = dram._locate(block)
            seen.add((channel, bank))
        assert len(seen) == 16

    def test_same_block_same_location(self):
        dram = DramModel()
        assert dram._locate(12345) == dram._locate(12345)


class TestLocatedReads:
    """locate_array + read_at replay service() read for read."""

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1 << 40),
                              st.floats(0, 50, allow_nan=False)),
                    min_size=1, max_size=200),
           st.sampled_from([DramConfig(),
                            DramConfig(channels=3, banks_per_channel=5,
                                       row_blocks=7)]))
    def test_matches_service(self, reads, config):
        blocks = np.array([b for b, _ in reads], dtype=np.uint64)
        located = zip(*(column.tolist()
                        for column in DramModel(config).locate_array(blocks)))
        by_service, by_location = DramModel(config), DramModel(config)
        now = 0.0
        for (block, gap), (channel, bank, row) in zip(reads, located):
            now += gap
            assert (by_location.read_at(now, channel, bank, row)
                    == by_service.service(now, block))
        assert by_location.stats == by_service.stats
