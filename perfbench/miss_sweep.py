"""miss-sweep: the miss-only path of the sensitivity and page-allocation
experiments.

One request is one :func:`repro.cache.simulate_misses` call: the raw L2
block stream (no L1 filter) of one application through one 4-way LRU
cache.  A round covers all 23 applications x ``traditional xor pmod
pdisp`` x L2 sizes 256 KB / 512 KB / 1 MB, on caches that start empty.
No CPU or DRAM model runs; the work is ``index_array`` plus fastsim's
vectorised LRU.

The traced pass hands ``simulate_misses`` a proxy around the indexing
function that times ``IndexingFunction.index_array``.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from time import perf_counter, perf_counter_ns
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache import simulate_misses
from repro.hashing import make_indexing
from repro.workloads import all_workload_names, get_workload

from perfbench import golden as goldens
from perfbench import harness

SCHEMES: Tuple[str, ...] = ("traditional", "xor", "pmod", "pdisp")
SIZES_KB: Tuple[int, ...] = (256, 512, 1024)
ASSOC = 4
BLOCK_BYTES = 64
SCALE = 1.0


def apps() -> Tuple[str, ...]:
    return tuple(all_workload_names())


@dataclass(frozen=True)
class Size:
    apps: Optional[Sequence[str]] = None  # None = all 23
    scale: float = SCALE


def block_streams(variant: int, app_names: Sequence[str],
                  scale: float) -> Dict[str, np.ndarray]:
    """Set-up: each application's raw L2 block-address stream."""
    return {app: get_workload(app).trace(scale=scale, seed=variant)
            .block_addresses(BLOCK_BYTES) for app in app_names}


def cache_grid(wrap=None) -> List[Tuple[int, str, object]]:
    """(size_kb, scheme, indexing) for every cache of one application."""
    grid = []
    for size_kb in SIZES_KB:
        n_sets = size_kb * 1024 // (BLOCK_BYTES * ASSOC)
        for scheme in SCHEMES:
            indexing = make_indexing(scheme, n_sets)
            grid.append((size_kb, scheme,
                         indexing if wrap is None else wrap(indexing)))
    return grid


def sweep_app(blocks: np.ndarray) -> Iterator[Tuple[int, str, int]]:
    """(size_kb, scheme, misses) of one application's stream."""
    for size_kb, scheme, indexing in cache_grid():
        yield size_kb, scheme, simulate_misses(
            indexing, blocks, ASSOC, per_set_counters=False).misses


class IndexProxy:
    """Times ``index_array``; ``simulate_misses`` needs nothing else."""

    def __init__(self, inner):
        self._inner = inner
        self.n_sets = inner.n_sets
        self.ns = 0
        self.keys = 0
        self.last = (0, 0)

    def index_array(self, block_addresses):
        start = perf_counter_ns()
        sets = self._inner.index_array(block_addresses)
        end = perf_counter_ns()
        self.ns += end - start
        self.keys += len(block_addresses)
        self.last = (start, end)
        return sets


def call_order(streams, grid) -> List[Tuple[str, int, str]]:
    """(app, size_kb, scheme) of every call of a round, in call order."""
    return [(app, size_kb, scheme) for app in streams
            for size_kb, scheme, _ in grid]


def failures(misses: Sequence[int], order, expected,
             reference: Sequence[int] = None) -> int:
    """Calls whose miss count differs from the golden value (or from
    ``reference``, the untraced run's counts)."""
    failed = 0
    for i, (app, size_kb, scheme) in enumerate(order):
        wrong = misses[i] != expected.get(app, {}).get(
            str(size_kb), {}).get(scheme)
        if reference is not None and misses[i] != reference[i]:
            wrong = True
        failed += wrong
    return failed


def _round(streams, grid, latencies=None) -> Tuple[int, List[int]]:
    """One untraced sweep; returns (accesses, misses per call)."""
    accesses = 0
    misses: List[int] = []
    for blocks in streams.values():
        for _, _, indexing in grid:
            start = perf_counter()
            result = simulate_misses(indexing, blocks, ASSOC,
                                     per_set_counters=False)
            if latencies is not None:
                latencies.append(perf_counter() - start)
            accesses += result.accesses
            misses.append(result.misses)
    return accesses, misses


def _ns_per_key(proxies: Sequence[IndexProxy]) -> float:
    return sum(p.ns for p in proxies) / max(sum(p.keys for p in proxies), 1)


def _traced_pass(variant: int, size: Size, app_names,
                 recorder: harness.SpanRecorder):
    """Traced set-up + sweep; returns (misses, wall_s, layers)."""
    trace_id = recorder.new_id()
    trace_ns = 0
    streams = {}
    for app in app_names:
        start = perf_counter_ns()
        streams.update(block_streams(variant, [app], size.scale))
        end = perf_counter_ns()
        trace_ns += end - start
        recorder.add("workloads.trace", start, end, trace_id, app=app)
    grid = cache_grid(wrap=IndexProxy)

    root = recorder.new_id()
    fastsim_ns = accesses = miss_total = 0
    misses: List[int] = []
    pass_start = perf_counter_ns()
    for app, blocks in streams.items():
        for size_kb, scheme, proxy in grid:
            start = perf_counter_ns()
            result = simulate_misses(proxy, blocks, ASSOC,
                                     per_set_counters=False)
            end = perf_counter_ns()
            call = recorder.add("cache.simulate_misses", start, end,
                                trace_id, root, app=app, scheme=scheme,
                                size_kb=size_kb, accesses=result.accesses)
            recorder.add("hashing.index_array", *proxy.last, trace_id, call)
            fastsim_ns += end - start
            accesses += result.accesses
            miss_total += result.misses
            misses.append(result.misses)
    pass_end = perf_counter_ns()
    recorder.add("sweep.round", pass_start, pass_end, trace_id, span_id=root,
                 calls=len(misses))
    wall_ns = pass_end - pass_start

    proxies = [proxy for _, _, proxy in grid]
    layers = {
        "workloads.trace_s": trace_ns / 1e9,
        "hashing.index_array_ns_per_key": _ns_per_key(proxies),
        "cache.fastsim_calls": len(misses),
        "cache.fastsim_ns_per_access": fastsim_ns / max(accesses, 1),
        "cache.fastsim_busy_frac": fastsim_ns / wall_ns,
        "cache.fastsim_miss_frac": miss_total / max(accesses, 1),
    }
    for scheme in SCHEMES:
        layers[f"hashing.index_array_ns_per_key.{scheme}"] = _ns_per_key(
            [proxy for _, name, proxy in grid if name == scheme])
    return misses, wall_ns / 1e9, layers


def run(seed: int, seconds: float, trace: bool,
        recorder: harness.SpanRecorder = None, size: Size = Size(),
        expected: Dict = None) -> harness.Outcome:
    variant = goldens.variant_of(seed)
    if expected is None:
        expected = goldens.load("miss-sweep")["variants"][str(variant)]
    app_names = tuple(size.apps or apps())

    def setup():
        return block_streams(variant, app_names, size.scale), cache_grid()

    if trace:
        return _run_traced(variant, size, app_names, *setup(), expected,
                           seconds, recorder)
    speed = harness.HostSpeed(numpy=True)
    (streams, grid), setup_times = harness.repeat_setup(setup, speed)

    order = call_order(streams, grid)
    attempted = failed = 0

    def one_round():
        nonlocal attempted, failed
        latencies: List[float] = []
        (accesses, misses), wall = harness.timed(
            lambda: _round(streams, grid, latencies))
        attempted += len(misses)
        failed += failures(misses, order, expected)
        return accesses, latencies, wall

    chunks = harness.measure_chunks(seconds, one_round, speed)
    metrics, details = harness.end_to_end(chunks, attempted=attempted,
                                          failed=failed, setup=setup_times)
    return harness.Outcome(metrics, attempted, failed, {
        "variant": variant, **details, "calls_per_round": len(order)})


def _run_traced(variant, size, app_names, streams, grid, expected, seconds,
                recorder) -> harness.Outcome:
    order = call_order(streams, grid)
    passes: List[Dict[str, float]] = []
    attempted = failed = count_mismatches = 0
    plain_misses: List[int] = []

    def untraced() -> float:
        nonlocal attempted, failed, plain_misses
        (_, plain_misses), wall = harness.timed(lambda: _round(streams, grid))
        attempted += len(plain_misses)
        failed += failures(plain_misses, order, expected)
        return wall

    def traced() -> float:
        nonlocal attempted, failed, count_mismatches
        misses, wall, layers = _traced_pass(variant, size, app_names,
                                            recorder)
        passes.append(layers)
        count_mismatches += sum(a != b for a, b in zip(misses, plain_misses))
        attempted += len(misses)
        failed += failures(misses, order, expected, reference=plain_misses)
        return wall

    plain, traced_walls = harness.alternate(seconds, untraced, traced)
    metrics = {name: median(p[name] for p in passes) for name in passes[0]}
    metrics.update(harness.overhead(plain, traced_walls))
    return harness.Outcome(metrics, attempted, failed, {
        "variant": variant, "traced_passes": len(traced_walls),
        "untraced_passes": len(plain),
        "traced_vs_untraced_count_mismatches": count_mismatches})
