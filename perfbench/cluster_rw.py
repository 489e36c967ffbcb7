"""cluster-rw: the replicated, write-heavy use of the store layer.

One caller issues ``Cluster.put/get/delete`` in sequence on 8 nodes x
16 shards (pmod over pmod; the prime ladder makes that 7 x 13), three
replicas with majority read and write quorums.  Traffic is a strided
walk over 4096 keys 64 apart with 50% puts and 10% deletes.

Correctness: a quorum miss fails the op, and every get must return the
latest value written to its key (the model is a plain dict, since ops
run one at a time).  A get may return the default only when every
replica's shard for that key has evicted entries for capacity.

The traced pass wraps ``Cluster.put/get/delete`` in a proxy.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional

from repro.cluster import Cluster, ReplicationConfig
from repro.store import Request, make_traffic

from perfbench import harness

N_NODES = 8
SHARDS_PER_NODE = 16
SCHEME = "pmod"
REPLICATION = ReplicationConfig(replicas=3, write_quorum=2, read_quorum=2)
STRIDE = 64
WORKING_SET = 4096
PUT_FRACTION = 0.5
DELETE_FRACTION = 0.1


@dataclass(frozen=True)
class Size:
    pool: int = 100_000          #: generated ops; the caller cycles over them
    warmup: int = 5_000          #: ops before the timed window
    pass_ops: int = 20_000       #: ops per pass of the traced run
    chunk: int = 10_000          #: ops per measured chunk


def make_pool(seed: int, size: Size) -> List[Request]:
    return make_traffic("strided", size.pool, seed=seed, stride=STRIDE,
                        working_set=WORKING_SET, put_fraction=PUT_FRACTION,
                        delete_fraction=DELETE_FRACTION)


def build_cluster() -> Cluster:
    return Cluster(n_nodes=N_NODES, node_scheme=SCHEME, shard_scheme=SCHEME,
                   shards_per_node=SHARDS_PER_NODE, replication=REPLICATION)


def evicted_everywhere(cluster: Cluster, key: int) -> bool:
    """Whether every replica shard of ``key`` has evicted for capacity."""
    for node_id in cluster.router.replicas(key, REPLICATION.replicas):
        store = cluster.nodes[node_id].store
        if store.shards[store.shard_for(key)].stats.evictions == 0:
            return False
    return True


class ClusterProxy:
    """Times ``Cluster.put/get/delete``, one span per op."""

    def __init__(self, inner: Cluster, recorder: harness.SpanRecorder):
        self._inner = inner
        self._recorder = recorder
        self.ns = {"put": 0, "get": 0, "delete": 0}
        self.ops = {"put": 0, "get": 0, "delete": 0}

    def _op(self, op: str, call, *args):
        start = perf_counter_ns()
        value = call(*args)
        end = perf_counter_ns()
        self.ns[op] += end - start
        self.ops[op] += 1
        trace_id = self._recorder.new_id()
        self._recorder.add("cluster." + op, start, end, trace_id,
                           span_id=trace_id)
        return value

    def put(self, key, value):
        return self._op("put", self._inner.put, key, value)

    def get(self, key, default=None):
        return self._op("get", self._inner.get, key, default)

    def delete(self, key):
        return self._op("delete", self._inner.delete, key)


class Caller:
    """The single caller: request cursor, key model and output checks."""

    def __init__(self, pool: List[Request], cluster: Cluster, target=None):
        self.pool = pool
        self.cluster = cluster
        self.target = cluster if target is None else target
        self.cursor = 0
        self.model: Dict[int, int] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong_values = 0
        self.evicted_reads = 0
        #: latencies of the ops since the last reset (None: not kept)
        self.latencies: Optional[List[float]] = None

    def drive(self, n_ops: int) -> None:
        """Issue the next ``n_ops`` ops."""
        pool = self.pool
        target = self.target
        counts = self.cluster.counts
        write_quorum = REPLICATION.write_quorum
        latencies = self.latencies
        first = self.cursor
        self.cursor += n_ops
        for i in range(first, first + n_ops):
            request = pool[i % len(pool)]
            key = request.key
            misses_before = counts["quorum_misses"]
            start = perf_counter()
            if request.op == "put":
                ok = target.put(key, i) >= write_quorum
                done = perf_counter()
                self.model[key] = i
            elif request.op == "get":
                value = target.get(key)
                done = perf_counter()
                ok = self._read_ok(key, value)
            else:
                target.delete(key)
                done = perf_counter()
                self.model.pop(key, None)
                ok = True
            if counts["quorum_misses"] != misses_before:
                ok = False
            self.attempted += 1
            self.failed += not ok
            if latencies is not None:
                latencies.append(done - start)

    def _read_ok(self, key: int, value) -> bool:
        expected = self.model.get(key)
        if value == expected:
            return True
        if value is None and evicted_everywhere(self.cluster, key):
            self.evicted_reads += 1
            return True
        self.wrong_values += 1
        return False


def simulated_counts(cluster: Cluster, caller: Caller) -> Dict:
    """Everything a deterministic replay must reproduce exactly."""
    telemetry = cluster.telemetry()
    return {**cluster.counts, "evictions": telemetry.evictions,
            "node_accesses": telemetry.node_accesses,
            "sim_p50_s": telemetry.sim_p50_s,
            "sim_p99_s": telemetry.sim_p99_s,
            "wrong_values": caller.wrong_values,
            "evicted_reads": caller.evicted_reads}


def _measure(seed: int, seconds: float, size: Size,
             corrupt=None) -> harness.Outcome:
    speed = harness.HostSpeed()
    (pool, cluster), setup = harness.repeat_setup(
        lambda: (make_pool(seed, size), build_cluster()), speed)
    caller = Caller(pool, cluster, None if corrupt is None
                    else corrupt(cluster))
    caller.drive(n_ops=size.warmup)

    def one_chunk():
        caller.latencies = []
        contacts = int(cluster.node_access_counts().sum())
        _, wall = harness.timed(lambda: caller.drive(size.chunk))
        # shard-level accesses: replica contacts, read repairs included
        contacts = int(cluster.node_access_counts().sum()) - contacts
        return contacts, caller.latencies, wall

    chunks = harness.measure_chunks(seconds, one_chunk, speed)
    metrics, details = harness.end_to_end(chunks, attempted=caller.attempted,
                                          failed=caller.failed, setup=setup)
    return harness.Outcome(metrics, caller.attempted, caller.failed, {
        **details, "wrong_values": caller.wrong_values,
        "evicted_reads": caller.evicted_reads,
        "quorum_misses": cluster.counts["quorum_misses"]})


def _pass(pool, size: Size, recorder=None):
    cluster = build_cluster()
    proxy = None if recorder is None else ClusterProxy(cluster, recorder)
    caller = Caller(pool, cluster, proxy)
    start = perf_counter()
    caller.drive(n_ops=size.pass_ops)
    return cluster, proxy, caller, perf_counter() - start


def _layers(cluster: Cluster, proxy: ClusterProxy) -> Dict[str, float]:
    telemetry = cluster.telemetry()
    per_op = {op: proxy.ns[op] / max(proxy.ops[op], 1) / 1e3
              for op in proxy.ns}
    return {
        "cluster.put_us": per_op["put"],
        "cluster.get_us": per_op["get"],
        "cluster.delete_us": per_op["delete"],
        "cluster.read_repairs": cluster.counts["read_repairs"],
        "cluster.quorum_misses": cluster.counts["quorum_misses"],
        "cluster.replica_errors": cluster.counts["replica_errors"],
        "cluster.evictions": telemetry.evictions,
        "cluster.node_balance": telemetry.node_balance,
        "cluster.sim_p99_us": telemetry.sim_p99_s * 1e6,
    }


def _measure_traced(seed: int, seconds: float, size: Size,
                    recorder: harness.SpanRecorder) -> harness.Outcome:
    pool = make_pool(seed, size)
    passes: List[Dict[str, float]] = []
    attempted = failed = count_mismatches = 0
    plain_counts: Dict = {}

    def untraced() -> float:
        nonlocal attempted, failed, plain_counts
        cluster, _, caller, wall = _pass(pool, size)
        plain_counts = simulated_counts(cluster, caller)
        attempted += caller.attempted
        failed += caller.failed
        return wall

    def traced() -> float:
        nonlocal attempted, failed, count_mismatches
        cluster, proxy, caller, wall = _pass(pool, size, recorder)
        passes.append(_layers(cluster, proxy))
        attempted += caller.attempted
        if simulated_counts(cluster, caller) != plain_counts:
            count_mismatches += 1
            failed += max(caller.failed, 1)
        else:
            failed += caller.failed
        return wall

    plain, traced_walls = harness.alternate(seconds, untraced, traced)
    metrics = {name: median(p[name] for p in passes) for name in passes[0]}
    metrics.update(harness.overhead(plain, traced_walls))
    return harness.Outcome(metrics, attempted, failed, {
        "traced_passes": len(traced_walls), "untraced_passes": len(plain),
        "ops_per_pass": size.pass_ops,
        "traced_vs_untraced_count_mismatches": count_mismatches,
        "simulated_counts": plain_counts})


def run(seed: int, seconds: float, trace: bool,
        recorder: harness.SpanRecorder = None, size: Size = Size(),
        corrupt=None) -> harness.Outcome:
    """``corrupt`` optionally wraps the cluster the caller talks to
    (tests use it to serve a wrong value and prove the check fails)."""
    if trace:
        return _measure_traced(seed, seconds, size, recorder)
    return _measure(seed, seconds, size, corrupt)
