"""The benchmark's metric catalogue: every name, its unit and direction.

``BENCHMARK.json`` at the repository root declares the same lists; the
benchmark's own tests check that the two agree.  End-to-end metrics are
host time and are measured with tracing off.  Per-layer metrics come
from a separate traced run; a workload that never calls into a layer
reports that layer's metrics as 0.
"""

from __future__ import annotations

from typing import List, NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "higher" or "lower"
    bound: float = 0.0  # end-to-end only: allowed worsening, as a share


#: Metrics a user of the system sees, reported by every workload.
END_TO_END: List[Metric] = [
    Metric("sim_accesses_per_s", "1/s", "higher", 0.25),
    Metric("requests_per_s", "1/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p99_ms", "ms", "lower", 0.25),
    Metric("ok_frac", "frac", "higher", 0.01),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
]

#: Metrics of single layers, reported by the traced run.
PER_LAYER: List[Metric] = [
    Metric("workloads.trace_s", "s", "lower"),
    Metric("engine.sim_count", "count", "lower"),
    Metric("cpu.run_s", "s", "lower"),
    Metric("cpu.self_s", "s", "lower"),
    Metric("cache.hierarchy_calls", "count", "lower"),
    Metric("cache.hierarchy_ns_per_call", "ns", "lower"),
    Metric("cache.hierarchy_busy_frac", "frac", "lower"),
    Metric("cache.l1_miss_frac", "frac", "lower"),
    Metric("cache.l2_accesses", "count", "lower"),
    Metric("cache.l2_miss_frac", "frac", "lower"),
    Metric("memory.dram_calls", "count", "lower"),
    Metric("memory.dram_ns_per_call", "ns", "lower"),
    Metric("memory.row_hit_frac", "frac", "higher"),
    Metric("hashing.index_array_ns_per_key", "ns", "lower"),
    Metric("hashing.index_array_ns_per_key.traditional", "ns", "lower"),
    Metric("hashing.index_array_ns_per_key.xor", "ns", "lower"),
    Metric("hashing.index_array_ns_per_key.pmod", "ns", "lower"),
    Metric("hashing.index_array_ns_per_key.pdisp", "ns", "lower"),
    Metric("cache.fastsim_calls", "count", "lower"),
    Metric("cache.fastsim_ns_per_access", "ns", "lower"),
    Metric("cache.fastsim_busy_frac", "frac", "lower"),
    Metric("cache.fastsim_miss_frac", "frac", "lower"),
    Metric("serve.us_per_request", "us", "lower"),
    Metric("serve.mean_batch_size", "items", "higher"),
    Metric("serve.batches", "count", "lower"),
    Metric("serve.peak_queue_depth", "count", "lower"),
    Metric("serve.retries", "count", "lower"),
    Metric("serve.rejected", "count", "lower"),
    Metric("serve.timeouts", "count", "lower"),
    Metric("serve.to_store_ratio", "ratio", "lower"),
    Metric("store.ops", "count", "lower"),
    Metric("store.us_per_op", "us", "lower"),
    Metric("store.busy_frac", "frac", "lower"),
    Metric("store.shard_for_per_request", "calls", "lower"),
    Metric("store.hit_rate", "frac", "higher"),
    Metric("store.balance", "ratio", "lower"),
    Metric("cluster.put_us", "us", "lower"),
    Metric("cluster.get_us", "us", "lower"),
    Metric("cluster.delete_us", "us", "lower"),
    Metric("cluster.read_repairs", "count", "lower"),
    Metric("cluster.quorum_misses", "count", "lower"),
    Metric("cluster.replica_errors", "count", "lower"),
    Metric("cluster.evictions", "count", "lower"),
    Metric("cluster.node_balance", "ratio", "lower"),
    Metric("cluster.sim_p99_us", "sim_us", "lower"),
    Metric("trace.overhead_s", "s", "lower"),
    Metric("trace.overhead_frac", "frac", "lower"),
    Metric("trace.spans", "count", "lower"),
]
