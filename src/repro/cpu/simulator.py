"""Trace-driven timing simulator.

Approximates the paper's 6-issue dynamic superscalar with an analytic
per-access model.  The figures the paper reports are *normalized
execution times*, broken into Busy / Other Stalls / Memory Stall — the
same three components this simulator produces:

* **busy** — dynamic instructions over the issue width.
* **other stalls** — branch-misprediction penalties (the dominant
  non-memory stall for the evaluated memory-bound codes).
* **memory stall** — exposed cache/DRAM latency.  L1 hits are fully
  hidden by the out-of-order window.  L2 hits expose a configurable
  fraction of their round trip.  DRAM accesses pay the row-hit/row-miss
  latency plus channel queueing, divided by the workload's achievable
  memory-level parallelism (clamped by the machine's pending-load
  limit).

Absolute cycle counts are not the point; ratios between indexing
schemes are driven by L2 miss counts and DRAM row behavior, which the
substrate models directly.

Two paths produce the same :class:`ExecutionResult`, bit for bit:

* :func:`simulate_schemes` (and its one-scheme case
  :func:`simulate_scheme`) splits the hierarchy at the L1/L2 boundary.
  The L1 is the same for every scheme, so one numpy L1 pass
  (:func:`~repro.cache.fastsim.lru_writebacks`; LRU is a stack
  algorithm, so every L1 miss, victim and dirty bit follows from the
  access sequence alone) emits the L2 request stream
  (:func:`l2_request_stream`).  Each LRU L2 resolves that stream to a
  per-request miss mask in numpy
  (:func:`~repro.cache.fastsim.lru_miss_mask`); skewed and fully
  associative L2s run it through their ``access_batch`` loop; any
  other L2 replays it one ``access`` at a time.  A lean loop then turns
  the masks into cycles.
* :class:`Simulator` driving a :class:`~repro.cache.hierarchy.CacheHierarchy`
  one access at a time (:func:`simulate_scheme_reference`) is the
  oracle the fast path is tested against.

The split is exact because a result depends only on each L2 request's
hit or miss: DRAM writes are posted (they neither stall nor move row
state, see :meth:`~repro.memory.dram.DramModel.service`), so which L2
line is evicted, and whether it is dirty, never reaches the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

import numpy as np

from repro.cache.fastsim import lru_miss_mask, lru_writebacks, simulate_misses
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.fully import FullyAssociativeCache
from repro.cache.replacement import LRUPolicy
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.skewed import SkewedAssociativeCache
from repro.cpu.config import MachineConfig, build_hierarchy, build_l1, build_l2
from repro.mathutil import log2_exact
from repro.memory import DramModel
from repro.trace.records import Trace


@dataclass
class ExecutionResult:
    """Cycle breakdown of one simulated run."""

    workload: str
    scheme: str
    busy: float
    other_stalls: float
    memory_stall: float
    l1_misses: int
    l2_accesses: int
    l2_misses: int
    dram_row_hits: int
    dram_row_misses: int

    @property
    def cycles(self) -> float:
        return self.busy + self.other_stalls + self.memory_stall

    def speedup_over(self, baseline: "ExecutionResult") -> float:
        """Speedup of *this* configuration relative to ``baseline``."""
        if self.cycles == 0:
            raise ZeroDivisionError("run produced zero cycles")
        return baseline.cycles / self.cycles

    def normalized_to(self, baseline: "ExecutionResult") -> "NormalizedTime":
        """Per-component execution time normalized to ``baseline`` (the
        stacked bars of Figures 7-10)."""
        total = baseline.cycles
        return NormalizedTime(
            workload=self.workload,
            scheme=self.scheme,
            busy=self.busy / total,
            other_stalls=self.other_stalls / total,
            memory_stall=self.memory_stall / total,
        )


@dataclass(frozen=True)
class NormalizedTime:
    """One stacked bar of the paper's execution-time figures."""

    workload: str
    scheme: str
    busy: float
    other_stalls: float
    memory_stall: float

    @property
    def total(self) -> float:
        return self.busy + self.other_stalls + self.memory_stall


class Simulator:
    """Runs traces through a hierarchy + DRAM and accumulates timing."""

    def __init__(self, hierarchy: CacheHierarchy, dram: DramModel,
                 config: MachineConfig = None, scheme: str = ""):
        self.hierarchy = hierarchy
        self.dram = dram
        self.config = config or MachineConfig.paper_default()
        self.scheme = scheme

    def run(self, trace: Trace, warmup_fraction: float = 0.0) -> ExecutionResult:
        """Simulate the full trace; returns the cycle breakdown.

        ``warmup_fraction`` runs that leading share of the trace to
        populate the caches, then resets every statistic before the
        measured region — the standard way to exclude cold misses.

        Only ``"mem"``-level accesses reach DRAM.  An access whose dirty
        L1 victim misses L2 on its write-allocate but whose demand read
        then hits L2 is ``"l2"``-level: it pays ``l2_exposed`` and the
        victim's allocate fill (and any L2 writeback it caused) is never
        charged to DRAM.  :func:`simulate_schemes` reproduces this.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        cfg = self.config
        meta = trace.meta
        hierarchy = self.hierarchy
        dram = self.dram
        addresses = trace.addresses
        writes = trace.is_write

        start = int(len(trace) * warmup_fraction)
        if start:
            for i in range(start):
                hierarchy.access(int(addresses[i]), bool(writes[i]))
            hierarchy.l1.stats.reset()
            hierarchy.l2.stats.reset()
            self.dram.stats = type(self.dram.stats)()

        n = len(trace) - start
        busy = n * meta.instructions_per_access / cfg.issue_width
        other = n * (meta.mispredicts_per_kaccess / 1000.0) * cfg.branch_penalty

        mlp = min(meta.mlp, float(cfg.pending_loads))
        l2_exposed = cfg.l2_hit_cycles * cfg.l2_exposed_fraction
        memory_stall = 0.0
        now = 0.0
        for i in range(start, len(trace)):
            outcome = hierarchy.access(int(addresses[i]), bool(writes[i]))
            if outcome.level == "l1":
                stall = 0.0
            elif outcome.level == "l2":
                stall = l2_exposed
            else:
                stall = 0.0
                for block in outcome.memory_reads:
                    stall += dram.service(now + stall, block, is_write=False)
                # Writebacks leave the requester's critical path but
                # still occupy the channel (posted writes).
                for block in outcome.memory_writes:
                    dram.service(now + stall, block, is_write=True)
                stall /= mlp
            memory_stall += stall
            now += meta.instructions_per_access / cfg.issue_width + stall

        l1 = hierarchy.l1.stats
        l2 = hierarchy.l2.stats
        return ExecutionResult(
            workload=trace.name,
            scheme=self.scheme,
            busy=busy,
            other_stalls=other,
            memory_stall=memory_stall,
            l1_misses=l1.misses,
            l2_accesses=l2.accesses,
            l2_misses=l2.misses,
            dram_row_hits=dram.stats.row_hits,
            dram_row_misses=dram.stats.row_misses,
        )


@dataclass(frozen=True)
class L2RequestStream:
    """The requests an L1 sends to L2 over one trace, in program order.

    Each L1 miss emits, in this order, its dirty victim's write (when
    the victim was dirty) and then its demand read.

    Attributes:
        blocks: L2 block address of every request (uint64).
        is_write: True for a dirty-victim write, False for a demand read.
        access_index: trace index of the access that issued the request.
    """

    blocks: np.ndarray
    is_write: np.ndarray
    access_index: np.ndarray

    def __len__(self) -> int:
        return len(self.blocks)


def l2_request_stream(trace: Trace,
                      config: MachineConfig = None) -> L2RequestStream:
    """The L2 request stream the L1 (:func:`~repro.cpu.config.build_l1`)
    emits over ``trace``, resolved in numpy by
    :func:`~repro.cache.fastsim.lru_writebacks`."""
    config = config or MachineConfig.paper_default()
    l1_bits = log2_exact(config.l1_block_bytes)
    l2_bits = log2_exact(config.l2_block_bytes)
    if l2_bits < l1_bits:
        raise ValueError("L2 lines must be at least as large as L1 lines")
    shift = np.uint64(l2_bits - l1_bits)
    l1 = build_l1(config)
    l1_blocks = trace.addresses >> np.uint64(l1_bits)
    miss, writeback, victims = lru_writebacks(
        l1_blocks, l1.indexing.index_array(l1_blocks), l1.assoc,
        trace.is_write, smax=l1.indexing.n_sets - 1)
    index = np.flatnonzero(miss)
    victim_first = writeback[index]
    per_miss = 1 + victim_first.astype(np.int64)
    # a miss's requests start after every earlier miss's requests
    victim_slots = (np.cumsum(per_miss) - per_miss)[victim_first]
    blocks = np.repeat(l1_blocks[index] >> shift, per_miss)
    blocks[victim_slots] = victims >> shift
    is_write = np.zeros(len(blocks), dtype=bool)
    is_write[victim_slots] = True
    return L2RequestStream(blocks, is_write,
                           np.repeat(index.astype(np.int64), per_miss))


def _resolved_in_numpy(l2) -> bool:
    """Whether ``l2`` is an LRU set-associative cache, whose outcomes
    numpy computes without replaying the stream."""
    return isinstance(l2, SetAssociativeCache) and type(l2.policy) is LRUPolicy


def _l2_miss_mask(l2, stream: L2RequestStream) -> np.ndarray:
    """Per-request miss mask of a fresh L2 cache object over ``stream``.

    LRU set-associative caches are resolved in numpy; skewed and fully
    associative caches run their batch loop (``access_batch``); any
    other cache replays the stream one ``access`` at a time.

    The fully associative L2 is not resolved in numpy: as one LRU set
    of ``n_blocks`` ways its reuse windows are long, so the numpy
    scan's scratch memory would dominate the run's footprint.
    """
    if _resolved_in_numpy(l2):
        sets = np.asarray(l2.indexing.index_array(stream.blocks),
                          dtype=np.int64)
        return lru_miss_mask(stream.blocks, sets, l2.assoc,
                             smax=l2.indexing.n_sets - 1)
    if isinstance(l2, (SkewedAssociativeCache, FullyAssociativeCache)):
        return l2.access_batch(stream.blocks, stream.is_write)
    access = l2.access
    return np.array([not access(block, is_write).hit
                     for block, is_write in zip(stream.blocks.tolist(),
                                                stream.is_write.tolist())],
                    dtype=bool)


def l2_set_counters(l2, stream: L2RequestStream
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-set (accesses, misses) of a fresh L2 cache object over
    ``stream``: the ``set_accesses`` / ``set_misses`` its
    :class:`~repro.cache.stats.CacheStats` would hold behind the L1
    that emitted the stream.

    LRU set-associative caches are counted in numpy
    (:func:`~repro.cache.fastsim.simulate_misses`); any other cache
    resolves the stream (:func:`_l2_miss_mask`) and reports its own
    stats.
    """
    if _resolved_in_numpy(l2):
        counts = simulate_misses(l2.indexing, stream.blocks, l2.assoc)
        return counts.set_accesses, counts.set_misses
    _l2_miss_mask(l2, stream)
    return l2.stats.set_accesses, l2.stats.set_misses


def _time_scheme(trace: Trace, scheme: str, stream: L2RequestStream,
                 miss: np.ndarray, config: MachineConfig,
                 start: int) -> ExecutionResult:
    """The timing loop of :meth:`Simulator.run`, given every L2
    request's hit/miss; ``start`` is the first measured access."""
    meta = trace.meta
    n = len(trace) - start
    busy = n * meta.instructions_per_access / config.issue_width
    other = (n * (meta.mispredicts_per_kaccess / 1000.0)
             * config.branch_penalty)
    mlp = min(meta.mlp, float(config.pending_loads))
    l2_exposed = config.l2_hit_cycles * config.l2_exposed_fraction
    step = meta.instructions_per_access / config.issue_width
    step_l2 = step + l2_exposed

    measured = slice(int(np.searchsorted(stream.access_index, start)), None)
    writes = stream.is_write[measured]
    index = stream.access_index[measured]
    miss = miss[measured]
    demand = np.flatnonzero(~writes)
    demand_miss = miss[demand]
    # 0 = L1 hit, 1 = L2 hit, 2 = serviced by memory
    levels = np.zeros(n, dtype=np.int8)
    levels[index[demand] - start] = 1 + demand_miss
    # A write request is always its access's dirty victim, issued right
    # before that access's demand read; on a "mem"-level access DRAM
    # first services the victim's allocate fill if that write missed.
    to_mem = demand[demand_miss]
    victims = np.maximum(to_mem - 1, 0)
    victim_fills = (to_mem > 0) & writes[victims] & miss[victims]
    dram = DramModel(config.dram_config())
    blocks = stream.blocks[measured]
    locations = (dram.locate_array(blocks[victims])
                 + dram.locate_array(blocks[to_mem]))
    mem = iter(zip(victim_fills.tolist(),
                   *(column.tolist() for column in locations)))

    read = dram.read_at
    memory_stall = 0.0
    now = 0.0
    for level in levels.tolist():
        if not level:
            now += step
        elif level == 1:
            memory_stall += l2_exposed
            now += step_l2
        else:
            fill, fill_channel, fill_bank, fill_row, channel, bank, row = \
                next(mem)
            stall = 0.0
            if fill:
                stall += read(now + stall, fill_channel, fill_bank, fill_row)
            stall += read(now + stall, channel, bank, row)
            stall /= mlp
            memory_stall += stall
            now += step + stall

    return ExecutionResult(
        workload=trace.name,
        scheme=scheme,
        busy=busy,
        other_stalls=other,
        memory_stall=memory_stall,
        l1_misses=len(demand),
        l2_accesses=len(writes),
        l2_misses=int(np.count_nonzero(miss)),
        dram_row_hits=dram.stats.row_hits,
        dram_row_misses=dram.stats.row_misses,
    )


def simulate_schemes(trace: Trace, schemes: Iterable[str],
                     config: MachineConfig = None,
                     skew_replacement: str = "enru",
                     warmup_fraction: float = 0.0) -> Dict[str, ExecutionResult]:
    """Simulate ``trace`` once per L2 scheme, sharing one L1 pass.

    Equal, field for field, to :func:`simulate_scheme_reference` for
    every scheme.  The L1 (identical for every scheme) runs once over
    the whole trace, warm-up included, and emits the L2 request
    stream; each scheme's L2 resolves that stream to a per-request
    miss mask (:func:`_l2_miss_mask`); the timing loop then charges
    ``l2_exposed`` to ``"l2"``-level accesses and calls
    DRAM only for ``"mem"``-level ones (:meth:`DramModel.read_at`) — the
    demand read, preceded by the dirty victim's allocate fill when that
    write missed L2 too.  As in :meth:`Simulator.run`, a victim fill
    whose access's demand read then hits L2 is never charged to DRAM,
    and DRAM writebacks are posted, so they are not modelled at all.

    Caches start empty on every call; nothing is shared across calls.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    config = config or MachineConfig.paper_default()
    stream = l2_request_stream(trace, config)
    return {
        scheme: simulate_l2(trace, scheme,
                            build_l2(scheme, config, skew_replacement),
                            stream, config, warmup_fraction)
        for scheme in schemes
    }


def simulate_l2(trace: Trace, scheme: str, l2, stream: L2RequestStream,
                config: MachineConfig = None,
                warmup_fraction: float = 0.0) -> ExecutionResult:
    """Simulate ``trace`` on the L1 that emitted ``stream`` over a fresh
    L2 cache object ``l2``, labelled ``scheme``: what :class:`Simulator`
    measures on that hierarchy.

    :func:`simulate_schemes` is this over :func:`~repro.cpu.config.build_l2`'s
    L2s; pass any other L2 (another indexing or associativity) to reuse
    one :func:`l2_request_stream` across them.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    config = config or MachineConfig.paper_default()
    return _time_scheme(trace, scheme, stream, _l2_miss_mask(l2, stream),
                        config, int(len(trace) * warmup_fraction))


def simulate_scheme(trace: Trace, scheme: str,
                    config: MachineConfig = None,
                    skew_replacement: str = "enru",
                    warmup_fraction: float = 0.0) -> ExecutionResult:
    """Simulate one L2 scheme (the one-scheme case of
    :func:`simulate_schemes`)."""
    return simulate_schemes(trace, [scheme], config, skew_replacement,
                            warmup_fraction)[scheme]


def simulate_scheme_reference(trace: Trace, scheme: str,
                              config: MachineConfig = None,
                              skew_replacement: str = "enru",
                              warmup_fraction: float = 0.0) -> ExecutionResult:
    """The per-access hierarchy path; the equivalence oracle.

    Builds a fresh :class:`CacheHierarchy` for ``scheme`` and runs
    :class:`Simulator` over it.  Kept as the reference
    :func:`simulate_schemes` is tested against.
    """
    config = config or MachineConfig.paper_default()
    hierarchy = build_hierarchy(scheme, config, skew_replacement)
    dram = DramModel(config.dram_config())
    return Simulator(hierarchy, dram, config, scheme=scheme).run(
        trace, warmup_fraction=warmup_fraction
    )
