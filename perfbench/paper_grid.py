"""paper-grid: the paper's own end-to-end cost.

A round runs :meth:`SimulationEngine.run_grid` over four applications x
all eight L2 schemes on a fresh engine, one request (one ``run_grid``
call) per application, so work shared across one application's schemes
stays inside a request.  The engine is serial (``jobs=1``) and has no
result cache, so every cell really simulates on caches that start empty
(``warmup_fraction=0``, as the paper pipeline runs).  Traces are
materialised in set-up through ``engine.traces.get``.

The traced pass swaps the engine's ``simulate_scheme`` for one that
assembles the same pieces (``build_hierarchy``, ``DramModel``,
``Simulator``) with proxies around ``CacheHierarchy.access`` and
``DramModel.service``; per-access boundaries only add to counters.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass
from statistics import median
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Sequence, Tuple

import repro.engine.runner as runner
from repro.cpu.config import SCHEMES as PAPER_SCHEMES
from repro.cpu.config import MachineConfig, build_hierarchy
from repro.cpu.simulator import Simulator
from repro.engine import RunConfig, SimulationEngine
from repro.memory import DramModel

from perfbench import golden as goldens
from perfbench import harness

#: tree and mcf miss L1 on ~every access (tree has the largest pMod
#: gain, mcf is DRAM-heavy); applu misses L1 on about a third; lu is
#: dominated by L2 hits.
APPS: Tuple[str, ...] = ("tree", "mcf", "applu", "lu")
SCHEMES: Tuple[str, ...] = tuple(PAPER_SCHEMES)
SCALE = 0.1


@dataclass(frozen=True)
class Size:
    apps: Sequence[str] = APPS
    schemes: Sequence[str] = SCHEMES
    scale: float = SCALE


def build_engine(size: Size, variant: int) -> SimulationEngine:
    """Set-up: a fresh engine with every trace materialised."""
    engine = SimulationEngine(RunConfig(scale=size.scale, seed=variant),
                              jobs=1)
    for app in size.apps:
        engine.traces.get(app)
    return engine


def mismatches(grid, expected: Dict[str, Dict[str, dict]]) -> List[tuple]:
    """(app, scheme) of every cell whose ExecutionResult differs from
    ``expected`` in any field."""
    return [(app, scheme) for (app, scheme), result in grid.items()
            if asdict(result) != expected.get(app, {}).get(scheme)]


def _accesses(engine: SimulationEngine, size: Size) -> int:
    return sum(len(engine.traces.get(app)) for app in size.apps) * len(
        size.schemes)


def run_round(engine: SimulationEngine, size: Size):
    """One request per application; returns (grid, request latencies)."""
    grid = {}
    latencies = []
    for app in size.apps:
        start = perf_counter()
        grid.update(engine.run_grid([app], size.schemes))
        latencies.append(perf_counter() - start)
    return grid, latencies


# -- traced pass -------------------------------------------------------


class HierarchyProxy:
    """Times ``CacheHierarchy.access``; keeps ``.l1``/``.l2`` for
    ``Simulator.run``."""

    def __init__(self, inner):
        self._inner = inner
        self.l1 = inner.l1
        self.l2 = inner.l2
        self.calls = 0
        self.ns = 0

    def access(self, byte_address, is_write=False):
        start = perf_counter_ns()
        outcome = self._inner.access(byte_address, is_write)
        self.ns += perf_counter_ns() - start
        self.calls += 1
        return outcome


class DramProxy:
    """Times ``DramModel.service``; passes ``stats`` through."""

    def __init__(self, inner: DramModel):
        self._inner = inner
        self.calls = 0
        self.ns = 0

    @property
    def stats(self):
        return self._inner.stats

    @stats.setter
    def stats(self, value):
        self._inner.stats = value

    def service(self, now, block_address, is_write=False):
        start = perf_counter_ns()
        latency = self._inner.service(now, block_address, is_write)
        self.ns += perf_counter_ns() - start
        self.calls += 1
        return latency


class _LayerTotals:
    def __init__(self):
        self.parent = 0  # span of the run_grid call in progress
        self.run_ns = 0
        self.hierarchy_calls = 0
        self.hierarchy_ns = 0
        self.dram_calls = 0
        self.dram_ns = 0


@contextmanager
def _traced_engine(recorder: harness.SpanRecorder, totals: _LayerTotals,
                   trace_id: int):
    """Route the engine's per-cell simulation through the proxies."""

    def simulate_scheme(trace, scheme, config=None,
                        skew_replacement="enru", warmup_fraction=0.0):
        config = config or MachineConfig.paper_default()
        cell_start = perf_counter_ns()
        hierarchy = HierarchyProxy(
            build_hierarchy(scheme, config, skew_replacement))
        dram = DramProxy(DramModel(config.dram_config()))
        simulator = Simulator(hierarchy, dram, config, scheme=scheme)
        run_start = perf_counter_ns()
        result = simulator.run(trace, warmup_fraction=warmup_fraction)
        end = perf_counter_ns()
        cell_id = recorder.add("engine.cell", cell_start, end, trace_id,
                               totals.parent, workload=trace.name,
                               scheme=scheme)
        recorder.add("cpu.run", run_start, end, trace_id, cell_id,
                     accesses=len(trace),
                     hierarchy_calls=hierarchy.calls,
                     hierarchy_ns=hierarchy.ns, dram_calls=dram.calls,
                     dram_ns=dram.ns)
        totals.run_ns += end - run_start
        totals.hierarchy_calls += hierarchy.calls
        totals.hierarchy_ns += hierarchy.ns
        totals.dram_calls += dram.calls
        totals.dram_ns += dram.ns
        return result

    original = runner.simulate_scheme
    runner.simulate_scheme = simulate_scheme
    try:
        yield
    finally:
        runner.simulate_scheme = original


def _traced_pass(size: Size, variant: int, recorder: harness.SpanRecorder):
    """One traced set-up + round; returns (grid, wall_s, layer metrics)."""
    trace_id = recorder.new_id()
    setup_start = perf_counter_ns()
    engine = SimulationEngine(RunConfig(scale=size.scale, seed=variant),
                              jobs=1)
    trace_ns = 0
    for app in size.apps:
        start = perf_counter_ns()
        engine.traces.get(app)
        end = perf_counter_ns()
        trace_ns += end - start
        recorder.add("workloads.trace", start, end, trace_id, app=app)
    recorder.add("setup", setup_start, perf_counter_ns(), trace_id)

    totals = _LayerTotals()
    grid = {}
    wall_ns = 0
    with _traced_engine(recorder, totals, trace_id):
        for app in size.apps:
            totals.parent = recorder.new_id()
            start = perf_counter_ns()
            grid.update(engine.run_grid([app], size.schemes))
            end = perf_counter_ns()
            recorder.add("engine.run_grid", start, end, trace_id,
                         span_id=totals.parent, app=app)
            wall_ns += end - start

    results = list(grid.values())
    accesses = _accesses(engine, size)
    l2_accesses = sum(r.l2_accesses for r in results)
    row_total = sum(r.dram_row_hits + r.dram_row_misses for r in results)
    layers = {
        "workloads.trace_s": trace_ns / 1e9,
        "engine.sim_count": engine.sim_count,
        "cpu.run_s": totals.run_ns / 1e9,
        "cpu.self_s": (totals.run_ns - totals.hierarchy_ns
                       - totals.dram_ns) / 1e9,
        "cache.hierarchy_calls": totals.hierarchy_calls,
        "cache.hierarchy_ns_per_call":
            totals.hierarchy_ns / max(totals.hierarchy_calls, 1),
        "cache.hierarchy_busy_frac": totals.hierarchy_ns / wall_ns,
        "cache.l1_miss_frac": sum(r.l1_misses for r in results) / accesses,
        "cache.l2_accesses": l2_accesses,
        "cache.l2_miss_frac":
            sum(r.l2_misses for r in results) / max(l2_accesses, 1),
        "memory.dram_calls": totals.dram_calls,
        "memory.dram_ns_per_call": totals.dram_ns / max(totals.dram_calls, 1),
        "memory.row_hit_frac":
            sum(r.dram_row_hits for r in results) / max(row_total, 1),
    }
    return grid, wall_ns / 1e9, layers


# -- entry point -------------------------------------------------------


def run(seed: int, seconds: float, trace: bool,
        recorder: harness.SpanRecorder = None, size: Size = Size(),
        expected: Dict[str, Dict[str, dict]] = None) -> harness.Outcome:
    variant = goldens.variant_of(seed)
    if expected is None:
        expected = goldens.load("paper-grid")["variants"][str(variant)]
    if trace:
        return _run_traced(size, variant, expected, seconds, recorder)

    speed = harness.HostSpeed()
    _, setup = harness.repeat_setup(lambda: build_engine(size, variant),
                                    speed)
    attempted = failed = 0
    bad: List[tuple] = []

    def one_round():
        nonlocal attempted, failed
        engine = build_engine(size, variant)
        grid, latencies = run_round(engine, size)
        wrong = mismatches(grid, expected)
        bad.extend(wrong)
        attempted += len(grid)
        failed += len(wrong)
        return _accesses(engine, size), latencies, sum(latencies)

    chunks = harness.measure_chunks(seconds, one_round, speed)
    metrics, details = harness.end_to_end(chunks, attempted=attempted,
                                          failed=failed, setup=setup)
    return harness.Outcome(metrics, attempted, failed, {
        "variant": variant, **details,
        "cells_per_round": len(size.apps) * len(size.schemes),
        "golden_mismatches": bad[:20]})


def _run_traced(size: Size, variant: int, expected, seconds: float,
                recorder: harness.SpanRecorder) -> harness.Outcome:
    passes: List[Dict[str, float]] = []
    attempted = failed = 0
    count_mismatches = 0
    plain_grid = {}

    def untraced() -> float:
        nonlocal attempted, failed, plain_grid
        grid, latencies = run_round(build_engine(size, variant), size)
        plain_grid = grid
        attempted += len(grid)
        failed += len(mismatches(grid, expected))
        return sum(latencies)

    def traced() -> float:
        nonlocal attempted, failed, count_mismatches
        grid, wall, layers = _traced_pass(size, variant, recorder)
        passes.append(layers)
        attempted += len(grid)
        wrong = set(mismatches(grid, expected))
        # the traced run must reproduce the untraced run exactly
        differs = {cell for cell, result in grid.items()
                   if asdict(result) != asdict(plain_grid[cell])}
        count_mismatches += len(differs)
        failed += len(wrong | differs)
        return wall

    plain, traced_walls = harness.alternate(seconds, untraced, traced)
    metrics = {name: median(p[name] for p in passes) for name in passes[0]}
    metrics.update(harness.overhead(plain, traced_walls))
    return harness.Outcome(metrics, attempted, failed, {
        "variant": variant, "traced_passes": len(traced_walls),
        "untraced_passes": len(plain),
        "traced_vs_untraced_count_mismatches": count_mismatches})
