"""The benchmark's own tests: tiny runs of every workload pass, every
output check can fail, traced and untraced runs agree, the goldens
match the code, and the declared metrics match ``BENCHMARK.json``.

Run with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import cluster_rw, golden, harness, miss_sweep, paper_grid
from perfbench import serve_zipf
from perfbench.metrics import END_TO_END, PER_LAYER
from repro.cache.fastsim import simulate_misses_reference
from repro.workloads import get_workload

from .conftest import ROOT

SEED = 3
VARIANT = golden.variant_of(SEED)

GRID = paper_grid.Size(apps=("tree", "lu"), schemes=("base", "pmod", "skw"),
                       scale=0.01)
SWEEP = miss_sweep.Size(apps=("tree", "bt"), scale=0.05)
SERVE = serve_zipf.Size(pool=3000, warmup=200, pass_requests=600, clients=8,
                        chunk=300)
CLUSTER = cluster_rw.Size(pool=12000, warmup=4500, pass_ops=6000, chunk=500)

E2E_NAMES = {m.name for m in END_TO_END}


@pytest.fixture(scope="module")
def grid_expected():
    return golden.paper_grid_cells(VARIANT, GRID.apps, GRID.schemes,
                                   GRID.scale)


@pytest.fixture(scope="module")
def sweep_expected():
    return golden.miss_sweep_counts(VARIANT, SWEEP.apps, SWEEP.scale)


def _run(module, trace=False, **kwargs):
    recorder = harness.SpanRecorder() if trace else None
    outcome = module.run(SEED, 0.2, trace, recorder, **kwargs)
    return outcome, recorder


# -- tiny runs pass ----------------------------------------------------


def test_paper_grid_tiny_run_passes(grid_expected):
    outcome, _ = _run(paper_grid, size=GRID, expected=grid_expected)
    assert outcome.failed == 0
    assert outcome.attempted >= len(GRID.apps) * len(GRID.schemes)
    assert set(outcome.metrics) == E2E_NAMES
    assert outcome.metrics["ok_frac"] == 1.0


def test_miss_sweep_tiny_run_passes(sweep_expected):
    outcome, _ = _run(miss_sweep, size=SWEEP, expected=sweep_expected)
    assert outcome.failed == 0
    assert outcome.attempted >= 2 * len(miss_sweep.SCHEMES) * len(
        miss_sweep.SIZES_KB)
    assert set(outcome.metrics) == E2E_NAMES


def test_serve_zipf_tiny_run_passes():
    outcome, _ = _run(serve_zipf, size=SERVE)
    assert outcome.failed == 0
    assert outcome.attempted > SERVE.warmup
    assert set(outcome.metrics) == E2E_NAMES
    assert all(v > 0 for v in outcome.metrics.values())


def test_cluster_rw_tiny_run_passes():
    outcome, _ = _run(cluster_rw, size=CLUSTER)
    assert outcome.failed == 0
    assert outcome.attempted > CLUSTER.warmup
    assert set(outcome.metrics) == E2E_NAMES
    assert all(v > 0 for v in outcome.metrics.values())


# -- every check can fail ----------------------------------------------


def test_corrupt_golden_value_fails_paper_grid(grid_expected):
    corrupted = json.loads(json.dumps(grid_expected))
    corrupted["lu"]["pmod"]["l2_misses"] += 1
    outcome, _ = _run(paper_grid, size=GRID, expected=corrupted)
    assert outcome.failed > 0
    assert outcome.failed_frac > 0
    assert outcome.metrics["ok_frac"] < 1.0


def test_corrupt_golden_value_fails_miss_sweep(sweep_expected):
    corrupted = json.loads(json.dumps(sweep_expected))
    corrupted["bt"]["512"]["pmod"] -= 1
    outcome, _ = _run(miss_sweep, size=SWEEP, expected=corrupted)
    assert outcome.failed > 0
    assert outcome.failed_frac > 0


class _OneWrongGet:
    """Passes everything through but answers one get of a stored key
    wrongly."""

    def __init__(self, inner, after: int = 50):
        self._inner = inner
        self._left = after

    def get(self, key, default=None):
        value = self._inner.get(key, default)
        self._left -= 1
        if self._left == 0 and value is None:
            self._left = 1  # wait for a stored key
        return value + 1 if self._left == 0 else value

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_corrupt_served_value_fails_serve_zipf():
    outcome, _ = _run(serve_zipf, size=SERVE, corrupt=_OneWrongGet)
    assert outcome.failed == 1
    assert outcome.details["wrong_values"] == 1
    assert outcome.metrics["ok_frac"] < 1.0


def test_corrupt_served_value_fails_cluster_rw():
    outcome, _ = _run(cluster_rw, size=CLUSTER, corrupt=_OneWrongGet)
    assert outcome.failed == 1
    assert outcome.details["wrong_values"] == 1


def test_non_ok_response_counts_as_failure():
    loop = serve_zipf.ClosedLoop([], frontend=None)
    request = serve_zipf.Request("get", 7)
    loop._check(request, _response("rejected"), expected=None)
    assert loop.failed == 1


def _response(status, value=None):
    from repro.serve import Response
    return Response(op="get", key=7, status=status, value=value)


def test_eviction_legitimately_returns_default():
    loop = serve_zipf.ClosedLoop([], frontend=None)
    put = serve_zipf.Request("put", 5, value=1)
    loop._check(put, _response("ok", value=7), expected=None)  # evicts 7
    loop._check(serve_zipf.Request("get", 7), _response("ok"), expected=3)
    assert loop.failed == 0
    loop._check(serve_zipf.Request("get", 8), _response("ok"), expected=3)
    assert loop.failed == 1


# -- host-speed correction ---------------------------------------------


def test_timings_are_corrected_by_the_slowdown_around_each_chunk():
    chunks = [harness.chunk_of(1000, [0.002] * 10, 1.0, slowdown=2.0),
              harness.chunk_of(1000, [0.001] * 10, 0.5, slowdown=1.0)]
    setup = harness.Setup(raw_s=[0.3, 0.2, 0.2], slowdowns=[3.0, 2.0, 1.0])
    metrics, details = harness.end_to_end(chunks, attempted=20, failed=0,
                                          setup=setup)
    assert metrics["sim_accesses_per_s"] == pytest.approx(2000)
    assert metrics["requests_per_s"] == pytest.approx(20)
    assert metrics["latency_p50_ms"] == pytest.approx(1.0)
    assert metrics["setup_s"] == pytest.approx(0.1)
    assert details["uncorrected"]["sim_accesses_per_s"] == pytest.approx(
        1500)
    assert details["uncorrected"]["latency_p50_ms"] == pytest.approx(1.5)
    assert details["uncorrected"]["setup_s"] == pytest.approx(0.2)


def test_host_speed_probe_reads_near_one_when_quiet():
    speed = harness.HostSpeed(numpy=True)
    slowdowns = [speed.sample() for _ in range(5)]
    assert all(0.2 < k < 20 for k in slowdowns)


# -- traced run agrees with untraced -----------------------------------


def _assert_traced_agrees(outcome, recorder, own_layers):
    assert outcome.failed == 0
    assert outcome.details["traced_vs_untraced_count_mismatches"] == 0
    assert set(outcome.metrics) <= {m.name for m in PER_LAYER}
    for name in own_layers:
        assert outcome.metrics[name] > 0, name
    assert recorder.spans
    assert "trace.overhead_s" in outcome.metrics


def test_paper_grid_traced_counts_equal_untraced(grid_expected):
    outcome, recorder = _run(paper_grid, trace=True, size=GRID,
                             expected=grid_expected)
    _assert_traced_agrees(outcome, recorder, [
        "engine.sim_count", "cpu.run_s", "cache.hierarchy_calls",
        "memory.dram_calls", "workloads.trace_s"])
    cells = [c for app in grid_expected.values() for c in app.values()]
    assert outcome.metrics["cache.l2_accesses"] == sum(
        c["l2_accesses"] for c in cells)
    assert outcome.metrics["engine.sim_count"] == len(cells)
    accesses = sum(len(get_workload(app).trace(scale=GRID.scale,
                                               seed=VARIANT))
                   for app in GRID.apps) * len(GRID.schemes)
    assert outcome.metrics["cache.hierarchy_calls"] == accesses


def test_miss_sweep_traced_counts_equal_untraced(sweep_expected):
    outcome, recorder = _run(miss_sweep, trace=True, size=SWEEP,
                             expected=sweep_expected)
    _assert_traced_agrees(outcome, recorder, [
        "cache.fastsim_calls", "hashing.index_array_ns_per_key.pmod"])
    calls = outcome.metrics["cache.fastsim_calls"]
    assert calls == 2 * len(miss_sweep.SCHEMES) * len(miss_sweep.SIZES_KB)
    misses = sum(m for app in sweep_expected.values()
                 for size in app.values() for m in size.values())
    accesses = sum(len(blocks) for blocks in miss_sweep.block_streams(
        VARIANT, SWEEP.apps, SWEEP.scale).values()) * calls // 2
    assert outcome.metrics["cache.fastsim_miss_frac"] == misses / accesses


def test_serve_zipf_traced_counts_equal_untraced():
    outcome, recorder = _run(serve_zipf, trace=True, size=SERVE)
    _assert_traced_agrees(outcome, recorder, [
        "serve.us_per_request", "store.ops", "store.us_per_op",
        "serve.to_store_ratio"])
    assert outcome.metrics["store.ops"] == SERVE.pass_requests
    # spans of one request share its id
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span[3], []).append(span)
    requests = {s[0] for s in by_name["serve.request"]}
    assert all(s[2] in requests and s[1] == s[2]
               for s in by_name["store.get"])


def test_cluster_rw_traced_counts_equal_untraced():
    outcome, recorder = _run(cluster_rw, trace=True, size=CLUSTER)
    _assert_traced_agrees(outcome, recorder, [
        "cluster.put_us", "cluster.get_us", "cluster.sim_p99_us"])


# -- goldens match the code --------------------------------------------


def test_paper_grid_golden_matches_scalar_path_on_a_slice():
    committed = golden.load("paper-grid")["variants"]["0"]
    fresh = golden.paper_grid_cells(0, apps=("applu",),
                                    schemes=("base", "pmod"))
    for scheme, cell in fresh["applu"].items():
        assert committed["applu"][scheme] == cell


def test_miss_sweep_golden_matches_reference_on_a_slice():
    committed = golden.load("miss-sweep")["variants"]["0"]
    blocks = miss_sweep.block_streams(0, ["tree"], miss_sweep.SCALE)["tree"]
    for size_kb, scheme, indexing in miss_sweep.cache_grid():
        if size_kb != 256:
            continue
        reference = simulate_misses_reference(indexing, blocks,
                                              miss_sweep.ASSOC,
                                              per_set_counters=False)
        assert committed["tree"]["256"][scheme] == reference.misses


# -- the command and its declaration -----------------------------------


def test_catalogue_matches_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER]
    assert [w["name"] for w in declared["workloads"]] == [
        "paper-grid", "miss-sweep", "serve-zipf", "cluster-rw"]


def test_command_prints_every_metric_and_a_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cluster-rw",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    for metric in END_TO_END:
        assert result["metrics"][metric.name]["unit"] == metric.unit
        assert any(line.startswith(metric.name + " ")
                   and line.endswith(" " + metric.unit) for line in lines)
    assert any(line.startswith("failed_frac ") for line in lines)
    stamp = json.loads(lines[0].split(" ", 1)[1])
    assert stamp["machine"]["nproc"] >= 1 and stamp["seed"] == 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
