"""Machine configuration (paper Table 3) and cache-scheme factories.

:meth:`MachineConfig.paper_default` encodes the simulated architecture
verbatim; :func:`build_hierarchy` assembles the L1+L2 hierarchy for any
of the paper's evaluated cache configurations:

========== =====================================================
key        configuration
========== =====================================================
base       traditional indexing, 4-way L2
8way       traditional indexing, 8-way same-size L2
xor        XOR indexing, 4-way L2
pmod       prime modulo indexing, 4-way L2
pdisp      prime displacement indexing, 4-way L2
skw        skewed associative L2 (circular-shift XOR, ENRU)
skw+pdisp  skewed associative L2 (prime displacement, ENRU)
fa         fully associative L2 of the same capacity
========== =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.cache import (
    CacheHierarchy,
    FullyAssociativeCache,
    SetAssociativeCache,
    SkewedAssociativeCache,
)
from repro.hashing import (
    PrimeDisplacementIndexing,
    PrimeModuloIndexing,
    SkewedPrimeDisplacementFamily,
    SkewedXorFamily,
    TraditionalIndexing,
    XorIndexing,
)
from repro.memory import DramConfig


@dataclass(frozen=True)
class MachineConfig:
    """Processor + memory hierarchy parameters (defaults = Table 3)."""

    # Processor
    issue_width: int = 6
    frequency_ghz: float = 1.6
    pending_loads: int = 8
    pending_stores: int = 16
    branch_penalty: int = 12
    # L1 data cache
    l1_bytes: int = 16 * 1024
    l1_assoc: int = 2
    l1_block_bytes: int = 32
    l1_hit_cycles: int = 3
    # L2 data cache
    l2_bytes: int = 512 * 1024
    l2_assoc: int = 4
    l2_block_bytes: int = 64
    l2_hit_cycles: int = 16
    # Fraction of the L2-hit round trip the out-of-order core cannot
    # hide behind independent work (model knob, not in Table 3).
    l2_exposed_fraction: float = 0.7

    @classmethod
    def paper_default(cls) -> "MachineConfig":
        """The exact configuration of Table 3."""
        return cls()

    @property
    def l1_sets(self) -> int:
        return self.l1_bytes // (self.l1_block_bytes * self.l1_assoc)

    @property
    def l2_sets(self) -> int:
        return self.l2_bytes // (self.l2_block_bytes * self.l2_assoc)

    @property
    def l2_blocks(self) -> int:
        return self.l2_bytes // self.l2_block_bytes

    def dram_config(self) -> DramConfig:
        """Table 3's memory latencies."""
        return DramConfig(row_hit_cycles=208, row_miss_cycles=243)


#: Cache configurations evaluated in the paper, in presentation order.
SCHEMES: List[str] = [
    "base", "8way", "xor", "pmod", "pdisp", "skw", "skw+pdisp", "fa",
]

#: Display names matching the paper's figures.
SCHEME_LABELS = {
    "base": "Base",
    "8way": "8-way",
    "xor": "XOR",
    "pmod": "pMod",
    "pdisp": "pDisp",
    "skw": "SKW",
    "skw+pdisp": "skw+pDisp",
    "fa": "FA",
}


def build_l2(scheme: str, config: MachineConfig = None,
             skew_replacement: str = "enru"):
    """The L2 cache object for one scheme key (see module docstring)."""
    config = config or MachineConfig.paper_default()
    n_sets = config.l2_sets
    if scheme == "base":
        return SetAssociativeCache(
            n_sets, config.l2_assoc, TraditionalIndexing(n_sets), name="Base"
        )
    if scheme == "8way":
        doubled = config.l2_assoc * 2
        return SetAssociativeCache(
            n_sets // 2, doubled, TraditionalIndexing(n_sets // 2), name="8-way"
        )
    if scheme == "xor":
        return SetAssociativeCache(
            n_sets, config.l2_assoc, XorIndexing(n_sets), name="XOR"
        )
    if scheme == "pmod":
        return SetAssociativeCache(
            n_sets, config.l2_assoc, PrimeModuloIndexing(n_sets), name="pMod"
        )
    if scheme == "pdisp":
        return SetAssociativeCache(
            n_sets, config.l2_assoc, PrimeDisplacementIndexing(n_sets), name="pDisp"
        )
    if scheme == "skw":
        family = SkewedXorFamily(n_sets, config.l2_assoc)
        return SkewedAssociativeCache(family, replacement=skew_replacement,
                                      name="SKW")
    if scheme == "skw+pdisp":
        family = SkewedPrimeDisplacementFamily(n_sets, config.l2_assoc)
        return SkewedAssociativeCache(family, replacement=skew_replacement,
                                      name="skw+pDisp")
    if scheme == "fa":
        return FullyAssociativeCache(config.l2_blocks)
    raise KeyError(f"unknown scheme {scheme!r}; known: {', '.join(SCHEMES)}")


def build_l1(config: MachineConfig = None) -> SetAssociativeCache:
    """The L1 data cache: traditional indexing, LRU, for every scheme."""
    config = config or MachineConfig.paper_default()
    return SetAssociativeCache(
        config.l1_sets, config.l1_assoc, TraditionalIndexing(config.l1_sets),
        name="L1",
    )


def build_hierarchy(scheme: str, config: MachineConfig = None,
                    skew_replacement: str = "enru") -> CacheHierarchy:
    """Full L1+L2 hierarchy for one scheme key."""
    config = config or MachineConfig.paper_default()
    return CacheHierarchy(
        build_l1(config), build_l2(scheme, config, skew_replacement),
        l1_block_bytes=config.l1_block_bytes,
        l2_block_bytes=config.l2_block_bytes,
    )
