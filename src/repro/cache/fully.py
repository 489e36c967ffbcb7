"""Fully associative cache (the *FA* bars of Figures 11-12).

A fully associative cache of the same capacity isolates conflict misses:
whatever misses remain are compulsory or capacity misses.  True LRU via
an ordered map keeps this O(1) per access.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.cache.setassoc import AccessResult
from repro.cache.stats import CacheStats


class FullyAssociativeCache:
    """LRU fully associative, write-back, write-allocate cache.

    Per-set statistics collapse to a single "set" so the stats object
    stays interface-compatible with the set-associative model.
    """

    name = "FA"

    def __init__(self, n_blocks: int):
        if n_blocks < 1:
            raise ValueError("capacity must be at least one block")
        self.n_blocks = n_blocks
        self._lru: "OrderedDict[int, bool]" = OrderedDict()  # block -> dirty
        self.stats = CacheStats(n_sets=1)

    def access(self, block_address: int, is_write: bool = False) -> AccessResult:
        """Look up ``block_address``, filling on miss."""
        stats = self.stats
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        stats.set_accesses[0] += 1

        if block_address in self._lru:
            stats.hits += 1
            self._lru.move_to_end(block_address)
            if is_write:
                self._lru[block_address] = True
            return AccessResult(hit=True, set_index=0)

        stats.misses += 1
        stats.set_misses[0] += 1
        victim_block = None
        writeback = False
        if len(self._lru) >= self.n_blocks:
            victim_block, victim_dirty = self._lru.popitem(last=False)
            writeback = victim_dirty
            stats.evictions += 1
            if writeback:
                stats.writebacks += 1
        self._lru[block_address] = is_write
        return AccessResult(
            hit=False, set_index=0, victim_block=victim_block, writeback=writeback
        )

    def access_batch(self, blocks: np.ndarray,
                     is_write: np.ndarray) -> np.ndarray:
        """:meth:`access` of every block in order; returns the miss mask.

        One loop over the stream with no per-access result objects; the
        cache and its ``stats`` end exactly as the per-access calls
        leave them.
        """
        lru = self._lru
        move_to_end = lru.move_to_end
        popitem = lru.popitem
        capacity = self.n_blocks
        miss = bytearray(len(blocks))
        evictions = writebacks = 0
        for i, (block, write) in enumerate(zip(blocks.tolist(),
                                               is_write.tolist())):
            if block in lru:
                move_to_end(block)
                if write:
                    lru[block] = True
                continue
            miss[i] = 1
            if len(lru) >= capacity:
                writebacks += popitem(last=False)[1]
                evictions += 1
            lru[block] = write

        mask = np.frombuffer(miss, dtype=bool)
        stats = self.stats
        writes = int(np.count_nonzero(is_write))
        misses = int(np.count_nonzero(mask))
        stats.writes += writes
        stats.reads += len(mask) - writes
        stats.hits += len(mask) - misses
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        stats.set_accesses[0] += len(mask)
        stats.set_misses[0] += misses
        return mask

    def contains(self, block_address: int) -> bool:
        return block_address in self._lru

    def __repr__(self) -> str:
        return f"FullyAssociativeCache(n_blocks={self.n_blocks})"
