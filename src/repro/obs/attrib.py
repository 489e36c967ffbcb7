"""Per-request causal attribution: trace contexts, critical-path
analysis, a tail-latency flight recorder, and heavy-hitter tracking.

The metrics layer answers *how slow* (windowed p50/p95/p99 per scheme);
this module answers *where the time went*.  A sampled request carries a
:class:`TraceContext` across every async/thread boundary it crosses —
admission, the per-shard batcher queue, the store op, replica fan-out —
and each boundary records a named :class:`Stage` with a measured wall
duration.  The finished :class:`Trace` is a causal stage timeline, not
a per-thread flat span list, so the serving and cluster drills can
decompose a measured p99 into queue wait vs. hash/storage vs. fabric
vs. retry and prove where an optimisation actually moved time.

Four consumers sit on top:

* :class:`CriticalPathAnalyzer` — aggregates traces into per-stage
  p50/p95/p99 contributions and a *coverage* number (Σ stage time /
  Σ wall time); the ``trace-check`` gate requires coverage ≥ 0.9.
* :class:`FlightRecorder` — bounded ring buffers of the slowest-N and
  all non-ok traces; ``dump()`` writes JSONL and journals an
  ``obs.flight_dump`` event carrying the slowest waterfall, and is
  wired to fire automatically when an SLO page trips.
* Histogram **exemplars** — the frontend passes ``trace_id`` into
  ``Histogram.observe(value, exemplar=...)`` so a p99 bucket links to
  a concrete recorded trace (see :mod:`repro.obs.registry`).
* :class:`HeavyHitterTracker` — Metwally space-saving top-K over
  routed keys, per shard/node, feeding ``HashQualityDetector`` so a
  concentration-drift alarm names the offending keys.

The same collector is the process-wide span tracer:
:func:`trace_span` times one synchronous region (``materialize``,
``simulate``, ``replay``, ``serve.batch`` ...).  Spans nest through one
:mod:`contextvars` variable holding the innermost open span, so each
thread and each asyncio task sees only its own parents; work handed to
an executor nests under the caller's span when it runs in a copy of
the caller's context (``contextvars.copy_context().run``).  Finished
span roots sit beside the retained request traces and never enter the
critical-path analyzer or the flight recorder.  Two export shapes
cover both:

* :meth:`TraceCollector.flat` — one JSON-friendly dict per span with
  ``depth``/``parent`` indices (the ``spans`` block of the snapshot
  schema in ``docs/observability.md``); each retained request trace
  appears as a ``trace.<op>`` root with one ``stage.<name>`` child per
  stage;
* :meth:`TraceCollector.render` — the same rows as an indented tree
  with wall times (the ``--trace`` output).

Everything is off by default: the process-wide :class:`TraceCollector`
starts disabled (``begin`` returns ``None`` and every call site guards
on that, and :func:`trace_span` returns one shared no-op context
manager), so the untraced path costs one attribute check.
"""

from __future__ import annotations

import contextvars
import heapq
import itertools
import json
import threading
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "CriticalPathAnalyzer",
    "FlightRecorder",
    "HeavyHitterTracker",
    "Stage",
    "Trace",
    "TraceCollector",
    "TraceContext",
    "get_collector",
    "set_collector",
    "trace_span",
]

_TRACE_SEQ = itertools.count(1)


def _next_trace_id() -> str:
    return f"t{next(_TRACE_SEQ):08x}"


# ---------------------------------------------------------------------------
# Trace records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stage:
    """One named, measured segment of a request's wall time.

    ``start_s`` is relative to the owning trace's start, so a list of
    stages renders directly as a waterfall.
    """

    name: str
    start_s: float
    duration_s: float
    detail: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
        }
        if self.detail:
            row["detail"] = dict(self.detail)
        return row


@dataclass(frozen=True)
class Trace:
    """A finished request timeline: identity, outcome, and its stages."""

    trace_id: str
    op: str
    scheme: str
    status: str
    start_s: float
    wall_s: float
    stages: Tuple[Stage, ...]
    baggage: Dict[str, Any] = field(default_factory=dict)

    def stage_total_s(self) -> float:
        return sum(s.duration_s for s in self.stages)

    def coverage(self) -> float:
        """Fraction of measured wall time explained by stages."""
        if self.wall_s <= 0.0:
            return 1.0
        return self.stage_total_s() / self.wall_s

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "op": self.op,
            "scheme": self.scheme,
            "status": self.status,
            "wall_s": self.wall_s,
            "coverage": self.coverage(),
            "stages": [s.as_dict() for s in self.stages],
            "baggage": dict(self.baggage),
        }


class TraceContext:
    """Mutable in-flight trace state, safe to hand across task/thread
    boundaries.

    The batcher executor and the submitting coroutine both write into
    one context, so stage appends go through a lock, and
    :meth:`finish` snapshots the stage list exactly once — a late
    append from an abandoned (timed-out) work item lands after the
    snapshot and is dropped rather than double-counted.
    """

    __slots__ = ("trace_id", "op", "scheme", "baggage", "start_s",
                 "marks", "_stages", "_lock", "_done")

    def __init__(self, op: str, scheme: str = "",
                 trace_id: Optional[str] = None,
                 **baggage: Any):
        self.trace_id = trace_id or _next_trace_id()
        self.op = op
        self.scheme = scheme
        self.baggage = dict(baggage)
        self.start_s = perf_counter()
        self.marks: Dict[str, float] = {}
        self._stages: List[Stage] = []
        self._lock = threading.Lock()
        self._done = False

    @property
    def finished(self) -> bool:
        return self._done

    def mark(self, name: str, at_s: Optional[float] = None) -> float:
        """Stamp a named instant (absolute ``perf_counter`` seconds)."""
        t = perf_counter() if at_s is None else at_s
        self.marks[name] = t
        return t

    def stage(self, name: str, start_s: float, duration_s: float,
              **detail: Any) -> bool:
        """Record one completed stage; ``start_s`` is absolute
        ``perf_counter`` seconds.  Returns False (and records nothing)
        once the trace has finished."""
        st = Stage(name=name, start_s=start_s - self.start_s,
                   duration_s=max(0.0, duration_s), detail=detail)
        with self._lock:
            if self._done:
                return False
            self._stages.append(st)
        return True

    def stage_since(self, name: str, t0: float, **detail: Any) -> bool:
        """Record a stage running from absolute ``t0`` until now."""
        return self.stage(name, t0, perf_counter() - t0, **detail)

    def finish(self, status: str = "ok",
               wall_s: Optional[float] = None) -> Trace:
        """Freeze into a :class:`Trace`; idempotent per context (later
        stage appends are rejected, later finishes see the same
        stages)."""
        with self._lock:
            self._done = True
            stages = tuple(sorted(self._stages, key=lambda s: s.start_s))
        wall = (perf_counter() - self.start_s) if wall_s is None else wall_s
        return Trace(trace_id=self.trace_id, op=self.op, scheme=self.scheme,
                     status=status, start_s=self.start_s, wall_s=wall,
                     stages=stages, baggage=dict(self.baggage))


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

#: The innermost open span of the current thread / asyncio task.
_OPEN_SPAN: contextvars.ContextVar = contextvars.ContextVar(
    "repro_obs_open_span", default=None)


class _NullSpan:
    """Shared no-op context manager for a disabled collector."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """One timed region, and the context manager that opens it: on
    enter it becomes a child of the innermost open span (or a new root
    of its collector) and the innermost open span itself; on exit the
    previous one is restored."""

    __slots__ = ("name", "labels", "start_s", "duration_s", "thread",
                 "children", "_collector", "_token")

    def __init__(self, collector: "TraceCollector", name: str,
                 labels: Dict[str, Any]):
        self._collector = collector
        self.name = name
        self.labels = labels
        self.duration_s: Optional[float] = None  # None while open
        self.children: List["_Span"] = []

    def __enter__(self) -> "_Span":
        collector = self._collector
        self.start_s = perf_counter() - collector.epoch
        self.thread = threading.current_thread().name
        parent = _OPEN_SPAN.get()
        if parent is None:
            with collector._lock:
                collector._roots.append(self)
        else:
            parent.children.append(self)
        self._token = _OPEN_SPAN.set(self)
        return self

    def __exit__(self, *exc) -> bool:
        self.duration_s = (perf_counter() - self._collector.epoch
                           - self.start_s)
        _OPEN_SPAN.reset(self._token)
        return False


# ---------------------------------------------------------------------------
# Critical-path analysis
# ---------------------------------------------------------------------------

class CriticalPathAnalyzer:
    """Decompose measured request latency into per-stage contributions.

    Works over finished traces: aggregate stage totals give each
    stage's share of total wall time, and the nearest-rank p50/p95/p99
    traces (by wall) give the concrete stage breakdown *at* each
    percentile — "the p99 request spent 71% of its wall queued".
    """

    def __init__(self, traces: Sequence[Trace]):
        self.traces = [t for t in traces if t.wall_s > 0.0]

    def coverage(self) -> float:
        """Σ stage time / Σ wall time over all traces."""
        wall = sum(t.wall_s for t in self.traces)
        if wall <= 0.0:
            return 0.0
        return sum(t.stage_total_s() for t in self.traces) / wall

    def _at_rank(self, q: float) -> Trace:
        ordered = sorted(self.traces, key=lambda t: t.wall_s)
        idx = max(0, min(len(ordered) - 1,
                         int(round(q * len(ordered) + 0.5)) - 1))
        return ordered[idx]

    def decompose(self) -> Dict[str, Any]:
        """The attribution report the drill experiments publish."""
        if not self.traces:
            return {"n_traces": 0, "coverage": 0.0, "wall": {},
                    "stages": {}, "percentiles": {}}
        totals: Dict[str, float] = {}
        for t in self.traces:
            for s in t.stages:
                totals[s.name] = totals.get(s.name, 0.0) + s.duration_s
        wall_total = sum(t.wall_s for t in self.traces)
        stages = {
            name: {
                "total_s": total,
                "share": (total / wall_total) if wall_total > 0 else 0.0,
                "mean_s": total / len(self.traces),
            }
            for name, total in sorted(totals.items(),
                                      key=lambda kv: -kv[1])
        }
        percentiles: Dict[str, Any] = {}
        for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            t = self._at_rank(q)
            breakdown: Dict[str, float] = {}
            for s in t.stages:
                breakdown[s.name] = breakdown.get(s.name, 0.0) + s.duration_s
            percentiles[label] = {
                "trace_id": t.trace_id,
                "wall_s": t.wall_s,
                "coverage": t.coverage(),
                "stages": breakdown,
            }
        return {
            "n_traces": len(self.traces),
            "coverage": self.coverage(),
            "wall": {label: percentiles[label]["wall_s"]
                     for label in percentiles},
            "stages": stages,
            "percentiles": percentiles,
        }


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------

class FlightRecorder:
    """Bounded ring buffers of the traces worth keeping: the slowest-N
    by wall time and every non-ok trace (most recent ``error_capacity``,
    oldest evicted first).

    ``dump()`` is the page-time action: it writes the retained traces
    as JSONL (when given a path) and journals an ``obs.flight_dump``
    event that embeds the slowest trace's waterfall, so a fired SLO
    page always leaves behind at least one concrete slow request to
    read.
    """

    def __init__(self, slow_capacity: int = 32, error_capacity: int = 64):
        if slow_capacity < 1 or error_capacity < 1:
            raise ValueError("flight recorder capacities must be >= 1")
        self.slow_capacity = slow_capacity
        self._slow: List[Tuple[float, int, Trace]] = []
        self._errors: deque = deque(maxlen=error_capacity)
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self.recorded = 0
        self.dumps = 0

    def record(self, trace: Trace) -> None:
        with self._lock:
            self.recorded += 1
            if trace.status != "ok":
                self._errors.append(trace)
            entry = (trace.wall_s, next(self._seq), trace)
            if len(self._slow) < self.slow_capacity:
                heapq.heappush(self._slow, entry)
            elif entry[0] > self._slow[0][0]:
                heapq.heapreplace(self._slow, entry)

    def slowest(self) -> List[Trace]:
        """Retained slowest traces, slowest first."""
        with self._lock:
            return [t for _, _, t in
                    sorted(self._slow, key=lambda e: (-e[0], e[1]))]

    def errors(self) -> List[Trace]:
        """Retained non-ok traces in arrival order."""
        with self._lock:
            return list(self._errors)

    def clear(self) -> None:
        with self._lock:
            self._slow.clear()
            self._errors.clear()
            self.recorded = 0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "recorded": self.recorded,
            "dumps": self.dumps,
            "slowest": [t.as_dict() for t in self.slowest()],
            "errors": [t.as_dict() for t in self.errors()],
        }

    def dump(self, path=None, reason: str = "") -> Dict[str, Any]:
        """Persist the retained traces and journal the fact.

        Returns the dump summary (also the journal event payload plus
        the full trace list when a path was written)."""
        from repro.obs.journal import get_journal
        from repro.obs.registry import get_registry

        slow = self.slowest()
        errors = self.errors()
        seen = {t.trace_id for t in slow}
        traces = slow + [t for t in errors if t.trace_id not in seen]
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                for t in traces:
                    fh.write(json.dumps(t.as_dict(), sort_keys=True) + "\n")
        self.dumps += 1
        get_registry().counter("obs.flight_dumps").inc()
        event: Dict[str, Any] = {
            "reason": reason,
            "n_slow": len(slow),
            "n_error": len(errors),
            "path": None if path is None else str(path),
        }
        if slow:
            event["slowest"] = slow[0].as_dict()
        get_journal().emit("obs.flight_dump", **event)
        return {**event, "n_traces": len(traces)}


# ---------------------------------------------------------------------------
# Heavy hitters (space-saving top-K)
# ---------------------------------------------------------------------------

class HeavyHitterTracker:
    """Metwally space-saving sketch: top-K keys of a stream in O(K)
    memory.

    A new key evicts the current minimum and inherits its count as the
    overestimation ``error`` bound, so ``count - error`` is a
    guaranteed lower bound on the key's true frequency.  ``where``
    remembers the last shard/node the key routed to, which is what
    lets a concentration-drift alarm name both the key and the shard
    it is piling onto.
    """

    __slots__ = ("k", "offered", "_counts", "_errors", "_where", "_lock")

    def __init__(self, k: int = 8):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.offered = 0
        self._counts: Dict[Any, int] = {}
        self._errors: Dict[Any, int] = {}
        self._where: Dict[Any, Any] = {}
        self._lock = threading.Lock()

    def offer(self, key: Any, where: Any = None) -> None:
        with self._lock:
            self.offered += 1
            if key in self._counts:
                self._counts[key] += 1
            elif len(self._counts) < self.k:
                self._counts[key] = 1
                self._errors[key] = 0
            else:
                victim = min(self._counts, key=self._counts.get)
                floor = self._counts.pop(victim)
                self._errors.pop(victim, None)
                self._where.pop(victim, None)
                self._counts[key] = floor + 1
                self._errors[key] = floor
            self._where[key] = where

    def top(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """Tracked keys, heaviest first (JSON-friendly rows)."""
        with self._lock:
            rows = [{"key": key, "count": count,
                     "error": self._errors.get(key, 0),
                     "where": self._where.get(key)}
                    for key, count in sorted(self._counts.items(),
                                             key=lambda kv: -kv[1])]
        return rows if n is None else rows[:n]

    def clear(self) -> None:
        with self._lock:
            self.offered = 0
            self._counts.clear()
            self._errors.clear()
            self._where.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._counts)


# ---------------------------------------------------------------------------
# Process-wide collector
# ---------------------------------------------------------------------------

class TraceCollector:
    """Process-wide sink for sampled traces and spans, mirroring the
    registry / journal global pattern: disabled by default, one shared
    instance, swap with :func:`set_collector`.

    ``begin`` returns ``None`` and :meth:`span` a shared no-op while
    disabled, so instrumented call sites cost one attribute check on
    the untraced path.  Finished traces land in a bounded deque (for
    the critical-path analyzer) and in the attached
    :class:`FlightRecorder`; span roots accumulate in a list of their
    own.
    """

    def __init__(self, capacity: int = 1024, enabled: bool = True,
                 flight: Optional[FlightRecorder] = None):
        self.enabled = enabled
        self.flight = flight if flight is not None else FlightRecorder()
        self.epoch = perf_counter()
        self._traces: deque = deque(maxlen=capacity)
        self._roots: List[_Span] = []
        self._lock = threading.Lock()

    def span(self, name: str, **labels: Any):
        """Context manager timing one region; no-op while disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, labels)

    def begin(self, op: str, scheme: str = "",
              **baggage: Any) -> Optional[TraceContext]:
        if not self.enabled:
            return None
        return TraceContext(op, scheme=scheme, **baggage)

    def finish(self, ctx: Optional[TraceContext], status: str = "ok",
               wall_s: Optional[float] = None) -> Optional[Trace]:
        if ctx is None:
            return None
        trace = ctx.finish(status=status, wall_s=wall_s)
        if self.enabled:
            with self._lock:
                self._traces.append(trace)
            self.flight.record(trace)
        return trace

    def traces(self, op: Optional[str] = None,
               scheme: Optional[str] = None) -> List[Trace]:
        with self._lock:
            rows = list(self._traces)
        if op is not None:
            rows = [t for t in rows if t.op == op]
        if scheme is not None:
            rows = [t for t in rows if t.scheme == scheme]
        return rows

    def analyze(self, op: Optional[str] = None,
                scheme: Optional[str] = None) -> Dict[str, Any]:
        """Critical-path decomposition over the retained traces."""
        return CriticalPathAnalyzer(
            self.traces(op=op, scheme=scheme)).decompose()

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self._roots = []
        self.flight.clear()
        self.epoch = perf_counter()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    # -- export --------------------------------------------------------

    def flat(self) -> List[Dict[str, Any]]:
        """Depth-first rows, span roots first, then one ``trace.<op>``
        root per retained request trace with its ``stage.<name>``
        children; ``parent`` is the parent's row index (None for roots)
        so the JSON round-trips the tree exactly."""
        rows: List[Dict[str, Any]] = []

        def add(name, labels, start_s, duration_s, thread, depth, parent):
            rows.append({"name": name, "labels": dict(labels),
                         "start_s": start_s, "duration_s": duration_s,
                         "thread": thread, "depth": depth,
                         "parent": parent})
            return len(rows) - 1

        def walk(span: _Span, depth: int, parent: Optional[int]) -> None:
            index = add(span.name, span.labels, span.start_s,
                        span.duration_s, span.thread, depth, parent)
            for child in list(span.children):
                walk(child, depth + 1, index)

        with self._lock:
            roots = list(self._roots)
            traces = list(self._traces)
        for root in roots:
            walk(root, 0, None)
        for trace in traces:
            # a request's stages run on several threads and tasks
            start = trace.start_s - self.epoch
            index = add(f"trace.{trace.op}",
                        {"trace_id": trace.trace_id, "scheme": trace.scheme,
                         "status": trace.status},
                        start, trace.wall_s, "request", 0, None)
            for stage in trace.stages:
                add(f"stage.{stage.name}", stage.detail,
                    start + stage.start_s, stage.duration_s, "request", 1,
                    index)
        return rows

    def render(self) -> str:
        """:meth:`flat` as an indented tree with wall times, for the
        terminal."""
        rows = self.flat()
        if not rows:
            return "(no spans recorded)"
        last_child = {row["parent"]: i for i, row in enumerate(rows)}
        pads: Dict[int, str] = {}
        lines: List[str] = []
        for i, row in enumerate(rows):
            labels = " ".join(f"{k}={v}" for k, v in row["labels"].items())
            duration = ("   (open)" if row["duration_s"] is None
                        else f"  {row['duration_s'] * 1e3:10.2f} ms")
            text = f"{row['name']}{' ' + labels if labels else ''}{duration}"
            parent = row["parent"]
            if parent is None:
                lines.append(text)
                pads[i] = ""
            else:
                tail = last_child[parent] == i
                lines.append(f"{pads[parent]}{'`- ' if tail else '|- '}{text}")
                pads[i] = pads[parent] + ("   " if tail else "|  ")
        return "\n".join(lines)


_global_collector = TraceCollector(enabled=False)


def get_collector() -> TraceCollector:
    """The process-wide trace collector (disabled by default)."""
    return _global_collector


def set_collector(collector: TraceCollector) -> TraceCollector:
    """Swap the process-wide collector; returns the previous one."""
    global _global_collector
    previous = _global_collector
    _global_collector = collector
    return previous


def trace_span(name: str, **labels: Any):
    """Span on the process-wide collector (no-op while it is off)."""
    return _global_collector.span(name, **labels)
