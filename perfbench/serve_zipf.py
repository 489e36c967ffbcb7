"""serve-zipf: the serving stack under read-mostly hot-key traffic.

A closed loop of 32 asyncio clients on one event loop (one OS thread)
drives ``Frontend`` -> ``ShardedStore`` (pmod, 32 shards, capacity 512
per shard) with zipfian traffic (alpha 1.1 over 4096 keys, 10% puts)
and ``BatchConfig(32, 1 ms)``.  Closed-loop because the frontend's real
callers (migrator chunks, adversary probes, loadgen clients) each wait
for their reply.  No paper-pipeline layer runs.

Correctness: every response must be ``ok``, and every get must return
the latest value written to its key.  The key model is applied in
submission order, which is the store's execution order for any one
key: ``submit`` routes and enqueues synchronously, and each shard queue
drains first in, first out.  A get may return the default only for a
key a capacity eviction removed.

The traced pass hands the frontend a proxy in place of the store that
times ``ShardedStore.get/put/delete/shard_for``.
"""

from __future__ import annotations

import asyncio
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from statistics import median
from time import perf_counter, perf_counter_ns
from typing import Callable, Dict, List, Optional

from repro.serve import BatchConfig, Frontend
from repro.store import Request, ShardedStore, make_traffic

from perfbench import harness

CLIENTS = 32
SCHEME = "pmod"
N_SHARDS = 32
SHARD_CAPACITY = 512
N_KEYS = 4096
ALPHA = 1.1
PUT_FRACTION = 0.1
BATCH = BatchConfig(max_batch_size=32, max_wait_s=0.001)


@dataclass(frozen=True)
class Size:
    pool: int = 50_000          #: generated requests; clients cycle over them
    warmup: int = 2_000         #: requests before the timed window
    pass_requests: int = 10_000  #: requests per pass of the traced run
    clients: int = CLIENTS
    chunk: int = 5_000          #: requests per measured chunk


def make_pool(seed: int, size: Size) -> List[Request]:
    return make_traffic("zipfian", size.pool, seed=seed, n_keys=N_KEYS,
                        alpha=ALPHA, put_fraction=PUT_FRACTION)


def build_frontend(wrap: Callable = None) -> Frontend:
    store = ShardedStore(n_shards=N_SHARDS, scheme=SCHEME,
                         shard_capacity=SHARD_CAPACITY)
    return Frontend(store if wrap is None else wrap(store), batch=BATCH)


class StoreProxy:
    """Times the store calls the frontend makes; ops are matched to the
    request that caused them through each key's in-flight FIFO."""

    def __init__(self, inner: ShardedStore, recorder: harness.SpanRecorder):
        self._inner = inner
        self._recorder = recorder
        #: key -> span ids of its submitted, not yet executed requests
        #: (a request's span id is also its trace id)
        self.inflight: Dict[int, deque] = defaultdict(deque)
        self.ops = 0
        self.ns = 0
        self.gets = 0
        self.get_hits = 0
        self.shard_for_calls = 0

    def shard_for(self, key):
        self.shard_for_calls += 1
        return self._inner.shard_for(key)

    def _op(self, name: str, call, key, *args):
        start = perf_counter_ns()
        value = call(key, *args)
        end = perf_counter_ns()
        self.ns += end - start
        self.ops += 1
        pending = self.inflight.get(key)
        request_span = pending.popleft() if pending else 0
        self._recorder.add(name, start, end, request_span, request_span)
        return value

    def get(self, key, default=None):
        value = self._op("store.get", self._inner.get, key, default)
        self.gets += 1
        self.get_hits += value is not default
        return value

    def put(self, key, value):
        return self._op("store.put", self._inner.put, key, value)

    def delete(self, key):
        return self._op("store.delete", self._inner.delete, key)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class ClosedLoop:
    """Shared request cursor, key model and output checks of one run."""

    def __init__(self, pool: List[Request], frontend: Frontend,
                 proxy: Optional[StoreProxy] = None,
                 recorder: Optional[harness.SpanRecorder] = None):
        self.pool = pool
        self.frontend = frontend
        self.proxy = proxy
        self.recorder = recorder
        self.cursor = 0
        self.model: Dict[int, int] = {}
        self.evicted = set()
        #: latencies of the requests since the last reset (None: not kept)
        self.latencies: Optional[List[float]] = None
        self.statuses: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.wrong_values = 0

    async def client(self, stop: Callable[[], bool]) -> None:
        pool = self.pool
        frontend = self.frontend
        while not stop():
            i = self.cursor
            self.cursor += 1
            request = pool[i % len(pool)]
            key = request.key
            expected = None
            if request.op == "put":
                request = Request("put", key, value=i)
                self.model[key] = i
                self.evicted.discard(key)
            elif request.op == "delete":
                self.model.pop(key, None)
            else:
                expected = self.model.get(key)
            if self.proxy is not None:
                span_id = self.recorder.new_id()
                self.proxy.inflight[key].append(span_id)
            start = perf_counter()
            response = await frontend.submit(request)
            done = perf_counter()
            if self.proxy is not None:
                self.recorder.add("serve.request", int(start * 1e9),
                                  int(done * 1e9), span_id, span_id=span_id,
                                  op=request.op, status=response.status)
                if span_id in self.proxy.inflight[key]:
                    # never reached the store (rejected, timed out)
                    self.proxy.inflight[key].remove(span_id)
            self._check(request, response, expected)
            if self.latencies is not None:
                self.latencies.append(done - start)

    def _check(self, request, response, expected) -> None:
        self.attempted += 1
        self.statuses[response.status] += 1
        if not response.ok:
            self.failed += 1
        elif request.op == "put" and response.value is not None:
            self.evicted.add(response.value)
        elif request.op == "get" and response.value != expected:
            if response.value is None and request.key in self.evicted:
                return  # a capacity eviction legitimately loses the key
            self.wrong_values += 1
            self.failed += 1

    async def drive(self, stop: Callable[[], bool], clients: int) -> None:
        await asyncio.gather(*(self.client(stop) for _ in range(clients)))


def store_counts(store: ShardedStore) -> Dict[str, int]:
    """Simulated store counters, summed over shards."""
    totals: Counter = Counter()
    for shard in store.shards:
        totals.update(shard.stats.snapshot())
    return dict(totals)


# -- end to end --------------------------------------------------------


def _measure(seed: int, seconds: float, size: Size,
             corrupt: Callable = None) -> harness.Outcome:
    """Timed chunks of ``size.chunk`` requests; between chunks the
    event loop stops with no request in flight while the host's speed
    is probed."""
    events = asyncio.new_event_loop()
    try:
        speed = harness.HostSpeed()
        (pool, frontend), setup = harness.repeat_setup(
            lambda: (make_pool(seed, size), build_frontend(corrupt)), speed)
        events.run_until_complete(frontend.start())
        loop = ClosedLoop(pool, frontend)
        events.run_until_complete(loop.drive(
            lambda: loop.cursor >= size.warmup, size.clients))

        def one_chunk():
            loop.latencies = []
            end_at = loop.cursor + size.chunk
            _, wall = harness.timed(lambda: events.run_until_complete(
                loop.drive(lambda: loop.cursor >= end_at, size.clients)))
            # one store access per request
            return len(loop.latencies), loop.latencies, wall

        chunks = harness.measure_chunks(seconds, one_chunk, speed)
        events.run_until_complete(frontend.stop())
    finally:
        events.run_until_complete(events.shutdown_asyncgens())
        events.close()
    metrics, details = harness.end_to_end(chunks, attempted=loop.attempted,
                                          failed=loop.failed, setup=setup)
    return harness.Outcome(metrics, loop.attempted, loop.failed, {
        **details, "statuses": dict(loop.statuses),
        "wrong_values": loop.wrong_values,
        "mean_batch_size": frontend.stats()["mean_batch_size"]})


# -- traced ------------------------------------------------------------


async def _pass(pool, size: Size, recorder=None):
    """``size.pass_requests`` requests on a fresh store; returns the
    loop, the frontend, the store and the wall time."""
    proxy = None

    def wrap(store):
        nonlocal proxy
        proxy = StoreProxy(store, recorder)
        return proxy

    frontend = build_frontend(wrap if recorder is not None else None)
    loop = ClosedLoop(pool, frontend, proxy, recorder)
    async with frontend:
        start = perf_counter()
        await loop.drive(lambda: loop.cursor >= size.pass_requests,
                         size.clients)
        wall = perf_counter() - start
    store = proxy._inner if proxy is not None else frontend.store
    return loop, frontend, store, proxy, wall


def _layers(loop: ClosedLoop, frontend: Frontend, store: ShardedStore,
            proxy: StoreProxy, wall: float) -> Dict[str, float]:
    stats = frontend.stats()
    us_per_request = wall / loop.attempted * 1e6
    us_per_op = proxy.ns / max(proxy.ops, 1) / 1e3
    return {
        "serve.us_per_request": us_per_request,
        "serve.mean_batch_size": stats["mean_batch_size"],
        "serve.batches": stats["batches"],
        "serve.peak_queue_depth": stats["peak_queue_depth"],
        "serve.retries": stats["retries"],
        "serve.rejected": stats["rejected"],
        "serve.timeouts": stats["timeouts"],
        "serve.to_store_ratio":
            us_per_request / us_per_op if us_per_op else 0.0,
        "store.ops": proxy.ops,
        "store.us_per_op": us_per_op,
        "store.busy_frac": proxy.ns / 1e9 / wall,
        "store.shard_for_per_request": proxy.shard_for_calls / loop.attempted,
        "store.hit_rate": proxy.get_hits / max(proxy.gets, 1),
        "store.balance": store.balance(),
    }


def _measure_traced(seed: int, seconds: float, size: Size,
                    recorder: harness.SpanRecorder) -> harness.Outcome:
    pool = make_pool(seed, size)
    passes: List[Dict[str, float]] = []
    plain_counts: Dict = {}
    attempted = failed = count_mismatches = 0

    def counts(loop, store):
        return {"statuses": dict(loop.statuses), "wrong": loop.wrong_values,
                **store_counts(store)}

    def untraced() -> float:
        nonlocal attempted, failed, plain_counts
        loop, _, store, _, wall = asyncio.run(_pass(pool, size))
        plain_counts = counts(loop, store)
        attempted += loop.attempted
        failed += loop.failed
        return wall

    def traced() -> float:
        nonlocal attempted, failed, count_mismatches
        loop, frontend, store, proxy, wall = asyncio.run(
            _pass(pool, size, recorder))
        passes.append(_layers(loop, frontend, store, proxy, wall))
        attempted += loop.attempted
        if counts(loop, store) != plain_counts:
            count_mismatches += 1
            failed += max(loop.failed, 1)
        else:
            failed += loop.failed
        return wall

    plain, traced_walls = harness.alternate(seconds, untraced, traced)
    metrics = {name: median(p[name] for p in passes) for name in passes[0]}
    metrics.update(harness.overhead(plain, traced_walls))
    return harness.Outcome(metrics, attempted, failed, {
        "traced_passes": len(traced_walls), "untraced_passes": len(plain),
        "requests_per_pass": size.pass_requests,
        "traced_vs_untraced_count_mismatches": count_mismatches,
        "store_counts": plain_counts})


def run(seed: int, seconds: float, trace: bool,
        recorder: harness.SpanRecorder = None, size: Size = Size(),
        corrupt: Callable = None) -> harness.Outcome:
    """``corrupt`` optionally wraps the store (tests use it to serve a
    wrong value and prove the check fails)."""
    if trace:
        return _measure_traced(seed, seconds, size, recorder)
    return _measure(seed, seconds, size, corrupt)
