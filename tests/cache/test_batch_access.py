"""access_batch (one loop over a whole stream) against per-access
access(): the hit sequence, the final stats and the state of every
line, for the skewed and the fully associative caches."""

import numpy as np
import pytest

from repro.cache import FullyAssociativeCache, SkewedAssociativeCache
from repro.hashing import SkewedPrimeDisplacementFamily, SkewedXorFamily

FAMILIES = {"xor": SkewedXorFamily, "pdisp": SkewedPrimeDisplacementFamily}


def stream(seed, n, footprint):
    """Skewed reuse over ``footprint`` blocks, about a third writes."""
    rng = np.random.default_rng(seed)
    blocks = (rng.zipf(1.2, size=n) % footprint) * 977 + 13
    return blocks.astype(np.uint64), rng.random(n) < 0.3


def per_access_hits(cache, blocks, writes):
    return [cache.access(block, write).hit
            for block, write in zip(blocks.tolist(), writes.tolist())]


def stats_of(cache):
    s = cache.stats
    return (s.reads, s.writes, s.hits, s.misses, s.evictions, s.writebacks,
            s.set_accesses.tolist(), s.set_misses.tolist())


class TestSkewedBatch:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("replacement", ["enru", "nru", "nrunrw"])
    def test_matches_per_access(self, replacement, family, seed):
        # 4 banks x 16 frames: the sweep period is 128 accesses, so the
        # 3000-access stream crosses it more than twenty times.
        def make():
            return SkewedAssociativeCache(FAMILIES[family](16, 4),
                                          replacement=replacement)

        batch, scalar = make(), make()
        blocks, writes = stream(seed, 3000, 400)
        # start mid-period on a partly filled cache
        per_access_hits(batch, blocks[:37], writes[:37])
        per_access_hits(scalar, blocks[:37], writes[:37])

        mask = batch.access_batch(blocks[37:], writes[37:])
        assert mask.dtype == bool
        assert (~mask).tolist() == per_access_hits(scalar, blocks[37:],
                                                   writes[37:])
        assert stats_of(batch) == stats_of(scalar)
        assert batch.recently_used == scalar.recently_used
        assert batch.dirty == scalar.dirty
        assert [batch.contains(b) for b in range(13, 400 * 977, 977)] == [
            scalar.contains(b) for b in range(13, 400 * 977, 977)]
        # the policy clocks and tie-break state carry on alike
        more, more_writes = stream(seed + 10, 500, 400)
        assert per_access_hits(batch, more, more_writes) == per_access_hits(
            scalar, more, more_writes)

    def test_empty_stream(self):
        cache = SkewedAssociativeCache(SkewedXorFamily(16, 4))
        mask = cache.access_batch(np.zeros(0, dtype=np.uint64),
                                  np.zeros(0, dtype=bool))
        assert mask.size == 0 and cache.stats.accesses == 0


class TestFullyAssociativeBatch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_access(self, seed):
        batch, scalar = FullyAssociativeCache(48), FullyAssociativeCache(48)
        blocks, writes = stream(seed, 3000, 200)
        per_access_hits(batch, blocks[:20], writes[:20])
        per_access_hits(scalar, blocks[:20], writes[:20])

        mask = batch.access_batch(blocks[20:], writes[20:])
        assert (~mask).tolist() == per_access_hits(scalar, blocks[20:],
                                                   writes[20:])
        assert stats_of(batch) == stats_of(scalar)
        # recency order and dirty bit of every resident line
        assert list(batch._lru.items()) == list(scalar._lru.items())
        assert [batch.contains(b) for b in range(13, 200 * 977, 977)] == [
            scalar.contains(b) for b in range(13, 200 * 977, 977)]
