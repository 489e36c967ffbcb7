"""Dual-channel DRAM with per-bank row buffers (paper Table 3).

Latencies are CPU cycles at 1.6 GHz, round trip from the processor:
243 for a row miss, 208 for a row hit.  The memory bus is
split-transaction, 3.2 GB/s peak; a 64-byte line occupies a channel for
``line_bytes / bus_bytes_per_cycle`` cycles, which serializes bursts of
misses and is what makes bad concentration hurt (misses that arrive in
bursts queue behind each other).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np


@dataclass(frozen=True)
class DramConfig:
    """DRAM geometry and timing (defaults = paper Table 3)."""

    channels: int = 2
    banks_per_channel: int = 8
    row_blocks: int = 64          #: L2 blocks per DRAM row (4 KB rows / 64 B)
    row_hit_cycles: int = 208     #: RT latency, open-row access
    row_miss_cycles: int = 243    #: RT latency, row activation needed
    bus_cycles_per_block: int = 32  #: 64 B over 8 B @ 400 MHz = 32 CPU cycles

    def __post_init__(self) -> None:
        if self.channels < 1 or self.banks_per_channel < 1:
            raise ValueError("need at least one channel and one bank")
        if self.row_blocks < 1:
            raise ValueError("rows must hold at least one block")
        if self.row_hit_cycles > self.row_miss_cycles:
            raise ValueError("a row hit cannot be slower than a row miss")


@dataclass
class DramStats:
    """Row-buffer and traffic counters."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    busy_wait_cycles: int = 0  #: cycles requests spent queued on a busy channel

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0


class DramModel:
    """Open-page DRAM: per-bank open-row tracking plus channel occupancy.

    :meth:`service` is called with the current CPU cycle and returns the
    access latency including any queueing delay on the channel.
    """

    def __init__(self, config: DramConfig = DramConfig()):
        self.config = config
        n_banks = config.channels * config.banks_per_channel
        self._open_row: List[int] = [-1] * n_banks
        self._channel_free_at: List[float] = [0.0] * config.channels
        self.stats = DramStats()

    def _locate(self, block_address: int) -> tuple:
        """(channel, global bank, row) for an L2 block address."""
        cfg = self.config
        channel = block_address % cfg.channels
        interleaved = block_address // cfg.channels
        bank_local = interleaved % cfg.banks_per_channel
        row = interleaved // cfg.row_blocks
        return channel, channel * cfg.banks_per_channel + bank_local, row

    def service(self, now: float, block_address: int, is_write: bool = False) -> float:
        """Service one block transfer starting no earlier than ``now``.

        Reads return the latency observed by the requester (queueing +
        row access) and update open-row state and channel occupancy.

        Writes model a posted write buffer: they are counted for
        bandwidth accounting but drain opportunistically between reads,
        neither stalling the requester nor disturbing the open rows the
        read stream is using (standard memory-controller write-drain
        policy).
        """
        if block_address < 0:
            raise ValueError("block address must be non-negative")
        channel, bank, row = self._locate(block_address)
        if is_write:
            self.stats.writes += 1
            return 0.0
        return self.read_at(now, channel, bank, row)

    def locate_array(self, block_addresses: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Vectorized ``(channel, global bank, row)`` of L2 block
        addresses, for :meth:`read_at`."""
        cfg = self.config
        blocks = np.asarray(block_addresses, dtype=np.uint64)
        channel = blocks % np.uint64(cfg.channels)
        interleaved = blocks // np.uint64(cfg.channels)
        bank = (channel * np.uint64(cfg.banks_per_channel)
                + interleaved % np.uint64(cfg.banks_per_channel))
        row = interleaved // np.uint64(cfg.row_blocks)
        return channel, bank, row

    def read_at(self, now: float, channel: int, bank: int, row: int) -> float:
        """:meth:`service` of a read whose location is already known
        (one entry of :meth:`locate_array`)."""
        cfg = self.config
        stats = self.stats
        stats.reads += 1

        start = max(now, self._channel_free_at[channel])
        queued = start - now
        stats.busy_wait_cycles += int(queued)

        if self._open_row[bank] == row:
            stats.row_hits += 1
            access = cfg.row_hit_cycles
        else:
            stats.row_misses += 1
            access = cfg.row_miss_cycles
            self._open_row[bank] = row
        self._channel_free_at[channel] = start + cfg.bus_cycles_per_block
        return queued + access

    def __repr__(self) -> str:
        return f"DramModel(channels={self.config.channels}, stats={self.stats})"
