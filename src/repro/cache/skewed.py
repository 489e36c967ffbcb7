"""Skewed associative cache (Seznec [18, 19]; paper Section 3.3, 5.3).

The cache is split into ``n_banks`` direct-mapped banks; each bank is
indexed by a *different* hashing function from a
:class:`~repro.hashing.base.BankIndexingFamily`.  A block may live in
exactly one location per bank, so a lookup probes ``n_banks`` frames.

LRU is impractical (the candidate frames differ per address), so the
paper evaluates Seznec's pseudo-LRU policies:

* **ENRU** (Enhanced Not Recently Used) — each line carries a
  recently-used bit; bits are swept clear periodically, and the victim
  is preferentially a not-recently-used line.
* **NRUNRW** (Not Recently Used, Not Recently Written) — additionally
  tracks a written bit and prefers lines that are neither recently used
  nor dirty (avoiding writebacks); the paper found it performs like
  ENRU.

The imprecision of these policies is one of the two sources of the
skewed cache's pathological behavior (the other is non-ideal
concentration).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Type

import numpy as np

from repro.cache.setassoc import AccessResult
from repro.cache.stats import CacheStats
from repro.hashing.base import BankIndexingFamily


class BankVictimPolicy(abc.ABC):
    """Chooses which bank's candidate line to evict in a skewed cache."""

    def __init__(self, cache: "SkewedAssociativeCache"):
        self.cache = cache
        self._tick = 0
        self._rng_state = 0x9E3779B9
        # Sweep period: twice the line count, so RU bits age out at
        # roughly the cache's natural reuse scale — long enough that a
        # resident line re-touched every 'epoch' usually keeps its bit
        # (shorter periods randomize victims and overstate the
        # pathological damage; the paper's worst case is -9%).
        self._sweep_period = max(1, 2 * cache.n_banks * cache.n_sets_per_bank)

    def on_access(self) -> None:
        """Advance the policy clock; sweeps RU state periodically."""
        self._tick += 1
        if self._tick % self._sweep_period == 0:
            for bank_ru in self.cache.recently_used:
                for i in range(len(bank_ru)):
                    bank_ru[i] = False

    @abc.abstractmethod
    def choose_bank(self, indices: List[int]) -> int:
        """Bank whose line at ``indices[bank]`` should be replaced."""

    def _rotate(self, candidates: List[int]) -> int:
        """Deterministic pseudo-random tiebreak (xorshift).

        Seznec's hardware breaks ties with a free-running counter whose
        phase is uncorrelated with any one set's access stream; a
        round-robin tied to the global access tick would instead track
        cyclic sweeps in lock-step and degenerate into FIFO.
        """
        s = self._rng_state
        s ^= (s << 13) & 0xFFFFFFFF
        s ^= s >> 17
        s ^= (s << 5) & 0xFFFFFFFF
        self._rng_state = s
        return candidates[s % len(candidates)]


class EnruPolicy(BankVictimPolicy):
    """Enhanced NRU: evict a not-recently-used candidate when one exists."""

    def choose_bank(self, indices: List[int]) -> int:
        cache = self.cache
        cold = [
            b for b, idx in enumerate(indices) if not cache.recently_used[b][idx]
        ]
        if cold:
            return self._rotate(cold)
        return self._rotate(list(range(cache.n_banks)))


class PlainNruPolicy(BankVictimPolicy):
    """Textbook NRU: no periodic sweep; when every candidate is recently
    used, clear *their* bits and pick among them.

    The "enhancement" ENRU adds is the global aging sweep — without it
    a busy set's bits saturate and victims degenerate to random.  Kept
    as the ablation baseline for the two published policies.
    """

    def on_access(self) -> None:
        self._tick += 1  # no sweep

    def choose_bank(self, indices: List[int]) -> int:
        cache = self.cache
        cold = [
            b for b, idx in enumerate(indices) if not cache.recently_used[b][idx]
        ]
        if cold:
            return self._rotate(cold)
        for bank, idx in enumerate(indices):
            cache.recently_used[bank][idx] = False
        return self._rotate(list(range(cache.n_banks)))


class NrunrwPolicy(BankVictimPolicy):
    """NRU-NRW: prefer lines neither recently used nor recently written."""

    def choose_bank(self, indices: List[int]) -> int:
        cache = self.cache
        not_used = [
            b for b, idx in enumerate(indices) if not cache.recently_used[b][idx]
        ]
        clean_and_cold = [
            b for b in not_used if not cache.dirty[b][indices[b]]
        ]
        if clean_and_cold:
            return self._rotate(clean_and_cold)
        if not_used:
            return self._rotate(not_used)
        clean = [
            b for b, idx in enumerate(indices) if not cache.dirty[b][idx]
        ]
        if clean:
            return self._rotate(clean)
        return self._rotate(list(range(cache.n_banks)))


#: Requests :meth:`SkewedAssociativeCache.access_batch` hashes at once:
#: bounds the Python objects held at a time.
_BATCH_CHUNK = 4096

_BANK_POLICIES: Dict[str, Type[BankVictimPolicy]] = {
    "enru": EnruPolicy,
    "nru": PlainNruPolicy,
    "nrunrw": NrunrwPolicy,
}


class SkewedAssociativeCache:
    """Write-back skewed associative cache with pseudo-LRU replacement.

    Args:
        family: per-bank indexing functions (size fixes the geometry).
        replacement: ``"enru"`` (paper default) or ``"nrunrw"``.
        name: label used in reports; defaults to the family's name.
    """

    def __init__(
        self,
        family: BankIndexingFamily,
        replacement: str = "enru",
        name: str = None,
    ):
        self.family = family
        self.n_banks = family.n_banks
        self.n_sets_per_bank = family.n_sets_per_bank
        self.name = name or family.name
        n = self.n_sets_per_bank
        self._blocks: List[List[Optional[int]]] = [
            [None] * n for _ in range(self.n_banks)
        ]
        self.dirty: List[List[bool]] = [[False] * n for _ in range(self.n_banks)]
        self.recently_used: List[List[bool]] = [
            [False] * n for _ in range(self.n_banks)
        ]
        try:
            policy_cls = _BANK_POLICIES[replacement]
        except KeyError:
            known = ", ".join(sorted(_BANK_POLICIES))
            raise KeyError(
                f"unknown skewed replacement {replacement!r}; known: {known}"
            ) from None
        self.policy = policy_cls(self)
        # Aggregate per-"set" stats indexed by bank-0 position, so the
        # uniformity/miss-distribution analyses remain meaningful.
        self.stats = CacheStats(self.n_sets_per_bank)

    @property
    def n_blocks(self) -> int:
        return self.n_banks * self.n_sets_per_bank

    def access(self, block_address: int, is_write: bool = False) -> AccessResult:
        """Probe all banks; on miss, fill the policy-chosen victim frame."""
        indices = self.family.indices(block_address)
        stats = self.stats
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        stats.set_accesses[indices[0]] += 1
        self.policy.on_access()

        for bank, idx in enumerate(indices):
            if self._blocks[bank][idx] == block_address:
                stats.hits += 1
                self.recently_used[bank][idx] = True
                if is_write:
                    self.dirty[bank][idx] = True
                return AccessResult(hit=True, set_index=indices[0])

        stats.misses += 1
        stats.set_misses[indices[0]] += 1

        # Prefer an empty frame in any bank.
        victim_block = None
        writeback = False
        for bank, idx in enumerate(indices):
            if self._blocks[bank][idx] is None:
                break
        else:
            bank = self.policy.choose_bank(indices)
            idx = indices[bank]
            victim_block = self._blocks[bank][idx]
            writeback = self.dirty[bank][idx]
            stats.evictions += 1
            if writeback:
                stats.writebacks += 1
        self._blocks[bank][idx] = block_address
        self.dirty[bank][idx] = is_write
        self.recently_used[bank][idx] = True
        return AccessResult(
            hit=False,
            set_index=indices[0],
            victim_block=victim_block,
            writeback=writeback,
        )

    def access_batch(self, blocks: np.ndarray,
                     is_write: np.ndarray) -> np.ndarray:
        """:meth:`access` of every block in order; returns the miss mask.

        One loop over the stream, with the bank indices hashed in numpy
        a chunk at a time and the lines held in flat per-frame lists
        (frame = bank * n_sets_per_bank + index); each of the three bank
        policies is inlined.  The cache, its policy state and its
        ``stats`` end exactly as the per-access calls leave them.
        """
        policy = self.policy
        plain = type(policy) is PlainNruPolicy
        nrunrw = type(policy) is NrunrwPolicy
        per_bank = self.n_sets_per_bank
        bank_base = np.arange(0, self.n_blocks, per_bank)
        resident = [block for bank in self._blocks for block in bank]
        dirty = [bit for bank in self.dirty for bit in bank]
        used = [bit for bank in self.recently_used for bit in bank]
        empty = resident.count(None)
        swept = None if plain else [False] * len(used)
        tick, state, period = (policy._tick, policy._rng_state,
                               policy._sweep_period)
        miss = bytearray(len(blocks))
        evictions = writebacks = 0
        stats = self.stats
        i = 0
        for lo in range(0, len(blocks), _BATCH_CHUNK):
            chunk = slice(lo, lo + _BATCH_CHUNK)
            indices = self.family.indices_array(blocks[chunk])
            stats.set_accesses += np.bincount(indices[:, 0],
                                              minlength=per_bank)
            for row, block, write in zip((indices + bank_base).tolist(),
                                         blocks[chunk].tolist(),
                                         is_write[chunk].tolist()):
                tick += 1
                if swept is not None and tick % period == 0:
                    used[:] = swept
                for frame in row:
                    if resident[frame] == block:
                        used[frame] = True
                        if write:
                            dirty[frame] = True
                        break
                else:
                    miss[i] = 1
                    # the first empty candidate frame, while the cache
                    # has any (frames are never invalidated)
                    for frame in row if empty else ():
                        if resident[frame] is None:
                            empty -= 1
                            break
                    else:
                        candidates = [f for f in row if not used[f]]
                        if nrunrw:
                            candidates = (
                                [f for f in candidates if not dirty[f]]
                                or candidates
                                or [f for f in row if not dirty[f]]
                                or row)
                        elif not candidates:
                            if plain:
                                for frame in row:
                                    used[frame] = False
                            candidates = row
                        # BankVictimPolicy._rotate's xorshift tiebreak
                        state ^= (state << 13) & 0xFFFFFFFF
                        state ^= state >> 17
                        state ^= (state << 5) & 0xFFFFFFFF
                        frame = candidates[state % len(candidates)]
                        evictions += 1
                        writebacks += dirty[frame]
                    resident[frame] = block
                    dirty[frame] = write
                    used[frame] = True
                i += 1
            chunk_miss = np.frombuffer(miss, dtype=bool)[chunk]
            stats.set_misses += np.bincount(indices[chunk_miss, 0],
                                            minlength=per_bank)

        for bank, lo in enumerate(range(0, len(resident), per_bank)):
            self._blocks[bank][:] = resident[lo:lo + per_bank]
            self.dirty[bank][:] = dirty[lo:lo + per_bank]
            self.recently_used[bank][:] = used[lo:lo + per_bank]
        policy._tick, policy._rng_state = tick, state
        mask = np.frombuffer(miss, dtype=bool)
        writes = int(np.count_nonzero(is_write))
        misses = int(np.count_nonzero(mask))
        stats.writes += writes
        stats.reads += len(mask) - writes
        stats.hits += len(mask) - misses
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        return mask

    def contains(self, block_address: int) -> bool:
        return any(
            self._blocks[bank][idx] == block_address
            for bank, idx in enumerate(self.family.indices(block_address))
        )

    def __repr__(self) -> str:
        return (
            f"SkewedAssociativeCache(name={self.name!r}, banks={self.n_banks}, "
            f"sets_per_bank={self.n_sets_per_bank})"
        )
