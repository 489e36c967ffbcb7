"""Multi-hash families for skewed associative caches (Section 3.3).

Seznec's skewed associative cache replaces the single indexing function
of a W-way cache with W direct-mapped banks, each indexed by a
*different* hash so that blocks conflicting in one bank rarely conflict
in another.  The paper evaluates two families:

* :class:`SkewedXorFamily` — Seznec's design: XOR the index bits with a
  circular shift of the tag chunk, shifting by a different amount per
  bank (a perfect-shuffle style dispersion).
* :class:`SkewedPrimeDisplacementFamily` — the paper's proposal: prime
  displacement with a distinct constant per bank (9, 19, 31, 37 for the
  evaluated four-bank L2).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.hashing.base import BankIndexingFamily
from repro.mathutil import circular_shift_left

#: Per-bank displacement constants used in the paper's evaluation.
PAPER_BANK_DISPLACEMENTS = (9, 19, 31, 37)


class SkewedXorFamily(BankIndexingFamily):
    """Seznec's circular-shift + XOR bank hashes (paper's *SKW*)."""

    name = "SKW"

    def bank_index(self, bank: int, block_address: int) -> int:
        if not 0 <= bank < self.n_banks:
            raise IndexError(f"bank {bank} out of range [0, {self.n_banks})")
        mask = self.n_sets_per_bank - 1
        x = block_address & mask
        t = (block_address >> self.index_bits) & mask
        return circular_shift_left(t, bank, self.index_bits) ^ x

    def bank_index_array(self, bank: int,
                         block_addresses: np.ndarray) -> np.ndarray:
        if not 0 <= bank < self.n_banks:
            raise IndexError(f"bank {bank} out of range [0, {self.n_banks})")
        a = np.asarray(block_addresses, dtype=np.uint64)
        bits = self.index_bits
        mask = np.uint64(self.n_sets_per_bank - 1)
        x = a & mask
        t = (a >> np.uint64(bits)) & mask
        shift = bank % bits
        rotated = ((t << np.uint64(shift))
                   | (t >> np.uint64(bits - shift))) & mask
        return (rotated ^ x).astype(np.int64)


class SkewedPrimeDisplacementFamily(BankIndexingFamily):
    """Prime displacement with a unique constant per bank (*skw+pDisp*)."""

    name = "skw+pDisp"

    def __init__(
        self,
        n_sets_per_bank: int,
        n_banks: int,
        displacements: Sequence[int] = PAPER_BANK_DISPLACEMENTS,
    ):
        super().__init__(n_sets_per_bank, n_banks)
        if len(displacements) < n_banks:
            raise ValueError(
                f"need {n_banks} displacement constants, got {len(displacements)}"
            )
        if any(d % 2 == 0 for d in displacements[:n_banks]):
            raise ValueError("bank displacements must all be odd")
        if len(set(displacements[:n_banks])) != n_banks:
            raise ValueError("bank displacements must be distinct")
        self.displacements = tuple(displacements[:n_banks])

    def bank_index(self, bank: int, block_address: int) -> int:
        if not 0 <= bank < self.n_banks:
            raise IndexError(f"bank {bank} out of range [0, {self.n_banks})")
        mask = self.n_sets_per_bank - 1
        x = block_address & mask
        tag = block_address >> self.index_bits
        return (self.displacements[bank] * tag + x) & mask

    def bank_index_array(self, bank: int,
                         block_addresses: np.ndarray) -> np.ndarray:
        if not 0 <= bank < self.n_banks:
            raise IndexError(f"bank {bank} out of range [0, {self.n_banks})")
        a = np.asarray(block_addresses, dtype=np.uint64)
        mask = np.uint64(self.n_sets_per_bank - 1)
        x = a & mask
        tag = a >> np.uint64(self.index_bits)
        # uint64 wrap-around leaves the masked low bits exact
        return ((np.uint64(self.displacements[bank]) * tag + x)
                & mask).astype(np.int64)
