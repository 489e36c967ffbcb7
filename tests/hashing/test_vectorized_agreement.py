"""Scalar vs numpy-vectorized agreement for every registered scheme.

The store's hot path (and the Figure 5/6 sweeps) run exclusively on
``index_array``; the cache models run exclusively on scalar ``index``.
This property test pins the two paths together for *every* registered
indexing function, across geometries, on randomized address batches
with fixed seeds — so a vectorization bug in any scheme fails loudly
instead of skewing a figure.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing import (
    SkewedPrimeDisplacementFamily,
    SkewedXorFamily,
    available_indexings,
    make_indexing,
)

GEOMETRIES = (16, 256, 2048, 8192)
SEEDS = (0, 7, 1234)

# gf2 precomputes one XOR column per address bit (default 32), so the
# shared address space for the cross-scheme sweep is 32-bit.
MAX_ADDRESS = 2**32 - 1


@pytest.mark.parametrize("key", available_indexings())
@pytest.mark.parametrize("n_sets_physical", GEOMETRIES)
def test_vectorized_matches_scalar_on_random_batches(key, n_sets_physical):
    indexing = make_indexing(key, n_sets_physical)
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, MAX_ADDRESS, size=2048, dtype=np.uint64)
        vectorized = indexing.index_array(addrs)
        scalar = np.fromiter((indexing.index(int(a)) for a in addrs),
                             dtype=np.int64, count=len(addrs))
        assert np.array_equal(vectorized, scalar), (
            f"{key} @ {n_sets_physical} sets: vectorized path diverged"
        )
        assert vectorized.min() >= 0
        assert vectorized.max() < indexing.n_sets


@pytest.mark.parametrize("key", available_indexings())
def test_vectorized_matches_scalar_on_edge_addresses(key):
    """Boundary addresses: zeros, set-count multiples, max-bit patterns."""
    indexing = make_indexing(key, 2048)
    edges = np.array(
        [0, 1, 2047, 2048, 2049, 2**31 - 1, 2**31, 2**32 - 1,
         2039 * 12345],
        dtype=np.uint64,
    )
    assert indexing.index_array(edges).tolist() == [
        indexing.index(int(a)) for a in edges
    ]


@settings(max_examples=50, deadline=None)
@given(
    key=st.sampled_from(available_indexings()),
    addrs=st.lists(st.integers(min_value=0, max_value=MAX_ADDRESS),
                   min_size=1, max_size=64),
)
def test_vectorized_matches_scalar_property(key, addrs):
    indexing = make_indexing(key, 256)
    batch = np.array(addrs, dtype=np.uint64)
    assert indexing.index_array(batch).tolist() == [
        indexing.index(a) for a in addrs
    ]


@pytest.mark.parametrize("family_cls", [SkewedXorFamily,
                                        SkewedPrimeDisplacementFamily])
@pytest.mark.parametrize("n_sets_per_bank", (16, 2048))
def test_bank_families_vectorized_match_scalar(family_cls, n_sets_per_bank):
    """Skewed bank hashes: one row of ``indices_array`` per address
    equals the scalar ``indices``, for random and edge addresses."""
    family = family_cls(n_sets_per_bank, 4)
    rng = np.random.default_rng(0)
    addrs = np.concatenate([
        rng.integers(0, 2**63, size=2048, dtype=np.uint64),
        np.array([0, 1, n_sets_per_bank - 1, n_sets_per_bank, 2**63 - 1,
                  2**64 - 1], dtype=np.uint64),
    ])
    rows = family.indices_array(addrs)
    assert rows.shape == (len(addrs), 4)
    assert rows.tolist() == [family.indices(int(a)) for a in addrs]
    assert family.indices_array(addrs[:0]).shape == (0, 4)
    with pytest.raises(IndexError):
        family.bank_index_array(4, addrs)
