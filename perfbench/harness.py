"""Shared pieces of the benchmark: the run outcome, the provenance
stamp, set-up timing, summary statistics and the span recorder."""

from __future__ import annotations

import gc
import gzip
import json
import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

#: Set-up is repeated this many times per run; the median is
#: reported, so one slow repetition does not move ``setup_s``.
SETUP_REPEATS = 5


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` maps catalogue names to values; ``details`` carries the
    sample counts and check results written to the result file.
    """

    metrics: Dict[str, float]
    attempted: int
    failed: int
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# -- provenance --------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_sha(root: Path = ROOT) -> str:
    """HEAD's commit id read from ``.git`` (no subprocess), or
    ``"unknown"`` outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    """Machine fingerprint, commit and exact command of this run."""
    return {
        "machine": {
            "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "git_sha": git_sha(),
        "command": list(getattr(sys, "orig_argv", sys.argv)),
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
    }


# -- measurement helpers -----------------------------------------------


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """``(fn(), seconds)``."""
    start = perf_counter()
    value = fn()
    return value, perf_counter() - start


class _Cell:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 1


#: Each probe's time on the reference machine (2-core Intel Xeon at
#: 2.0 GHz, Python 3.11, numpy 2.4) when nothing else contends for it.
PYTHON_PROBE_QUIET_S = 0.008
NUMPY_PROBE_QUIET_S = 0.010


class HostSpeed:
    """How much slower than quiet the host is running right now.

    A shared machine's speed swings by up to 1.8x within minutes (other
    tenants' load), far more than any change a benchmark must resolve.
    The interpreter probe times a fixed slice of plain interpreter work
    (dict lookups, attribute writes, integer arithmetic; it allocates
    nothing, so it never wakes the garbage collector).  Contention slows
    numpy's sorts and gathers far less, so a workload that spends its
    time in numpy (``numpy=True``) also times a slice of such work and
    takes the fourth root of the product of the two slowdowns: over two
    sets of ten runs on the reference machine, miss-sweep's time
    tracked that best (full correction by either probe overshot).
    """

    def __init__(self, numpy: bool = False):
        self._keys = list(range(0, 4096 * 61, 61))
        self._table = {key: _Cell() for key in self._keys}
        self._arrays = None
        if numpy:
            rng = np.random.default_rng(0)
            self._arrays = (rng.integers(0, 1 << 20, size=80_000),
                            rng.integers(0, 80_000, size=80_000))

    def _python_s(self) -> float:
        table = self._table
        keys = self._keys
        start = perf_counter()
        for _ in range(20):
            for key in keys:
                cell = table[key]
                cell.value = (cell.value * 31 + key) & 0xFFFF
        return perf_counter() - start

    def _numpy_s(self) -> float:
        values, picks = self._arrays
        start = perf_counter()
        gathered = values[np.argsort(values, kind="stable")][picks]
        np.count_nonzero(gathered > 1 << 19)
        return perf_counter() - start

    def sample(self) -> float:
        """The host's current slowdown (1.0 = quiet)."""
        slowdown = self._python_s() / PYTHON_PROBE_QUIET_S
        if self._arrays is not None:
            slowdown = (slowdown * self._numpy_s()
                        / NUMPY_PROBE_QUIET_S) ** 0.25
        return slowdown


@dataclass
class Setup:
    """A run's set-up durations in host time, with the host's slowdown
    around each."""

    raw_s: List[float]
    slowdowns: List[float]

    @property
    def corrected_s(self) -> List[float]:
        return [raw / k for raw, k in zip(self.raw_s, self.slowdowns)]


def repeat_setup(setup: Callable[[], Any], speed: HostSpeed,
                 repeats: int = SETUP_REPEATS) -> Tuple[Any, Setup]:
    """Run ``setup`` ``repeats`` times, each from a freshly collected
    heap and between two speed probes; returns the last product."""
    raw: List[float] = []
    slowdowns: List[float] = []
    product = None
    for _ in range(repeats):
        product = None
        gc.collect()
        before = speed.sample()
        product, seconds = timed(setup)
        raw.append(seconds)
        slowdowns.append((before + speed.sample()) / 2)
    return product, Setup(raw, slowdowns)


@dataclass
class Chunk:
    """One chunk of consecutive measured work, in raw host time, with
    the host's slowdown around it."""

    accesses: float
    requests: int
    wall_s: float
    p50_s: float
    p99_s: float
    slowdown: float


#: Latency percentiles are taken over windows of this many consecutive
#: requests (p99 then has ten samples beyond it), and a chunk reports
#: its median window: one brief host stall moves one window's p99, not
#: the chunk's.
LATENCY_WINDOW = 1000


def chunk_of(accesses: float, latencies_s: Sequence[float], wall_s: float,
             slowdown: float) -> Chunk:
    latencies = np.asarray(latencies_s)
    n_windows = max(len(latencies) // LATENCY_WINDOW, 1)
    windows = np.array_split(latencies, n_windows)
    p50, p99 = np.median([np.percentile(w, [50, 99]) for w in windows],
                         axis=0)
    return Chunk(accesses, len(latencies), wall_s, float(p50), float(p99),
                 slowdown)


def measure_chunks(seconds: float, run_chunk: Callable[[], tuple],
                   speed: HostSpeed) -> List[Chunk]:
    """Run chunks until ``seconds`` is spent, probing the host's speed
    before each chunk and after the last.  ``run_chunk`` returns
    ``(accesses, request latencies, wall_s)``."""
    chunks: List[Chunk] = []
    before = speed.sample()
    start = perf_counter()
    while True:
        accesses, latencies, wall = run_chunk()
        after = speed.sample()
        chunks.append(chunk_of(accesses, latencies, wall,
                               (before + after) / 2))
        before = after
        if perf_counter() - start + wall > seconds:
            return chunks


def _timings(chunks: Sequence[Chunk], correct: bool) -> Dict[str, float]:
    def med(values):
        return float(np.median(list(values)))

    def k(chunk):
        return chunk.slowdown if correct else 1.0

    return {
        "sim_accesses_per_s": med(c.accesses / c.wall_s * k(c)
                                  for c in chunks),
        "requests_per_s": med(c.requests / c.wall_s * k(c) for c in chunks),
        "latency_p50_ms": med(c.p50_s / k(c) for c in chunks) * 1e3,
        "latency_p99_ms": med(c.p99_s / k(c) for c in chunks) * 1e3,
    }


def end_to_end(chunks: Sequence[Chunk], *, attempted: int, failed: int,
               setup: Setup) -> Tuple[Dict[str, float], Dict]:
    """The end-to-end metrics every workload reports, and details.

    Every timing is the median over chunks (over repetitions, for
    ``setup_s``) of its host-time value corrected to a quiet host:
    rates are multiplied, and times divided, by the slowdown the probes
    measured around the chunk.  The uncorrected medians go to the
    details.
    """
    metrics = _timings(chunks, correct=True)
    metrics["setup_s"] = median(setup.corrected_s)
    metrics["ok_frac"] = 1.0 - failed / attempted if attempted else 0.0
    metrics["peak_rss_mb"] = peak_rss_mb()
    details = {
        "chunks": len(chunks),
        "latency_samples": sum(c.requests for c in chunks),
        "host_slowdown": [round(c.slowdown, 4) for c in chunks],
        "uncorrected": {**_timings(chunks, correct=False),
                        "setup_s": median(setup.raw_s)},
    }
    return metrics, details


def alternate(seconds: float, untraced: Callable[[], float],
              traced: Callable[[], float]) -> Tuple[List[float], List[float]]:
    """Run untraced and traced passes of the same work in turn until
    ``seconds`` is spent (at least one of each); each callable returns
    its pass's wall time.  Alternating keeps drift in the host's speed
    out of the overhead estimate."""
    plain: List[float] = []
    traced_walls: List[float] = []
    start = perf_counter()
    while True:
        plain.append(untraced())
        traced_walls.append(traced())
        spent = perf_counter() - start
        if spent + plain[-1] + traced_walls[-1] > seconds:
            return plain, traced_walls


def overhead(plain: Sequence[float],
             traced: Sequence[float]) -> Dict[str, float]:
    """Tracing overhead: traced minus untraced pass wall time."""
    base = median(plain)
    extra = median(traced) - base
    return {"trace.overhead_s": extra,
            "trace.overhead_frac": extra / base if base else 0.0}


# -- spans -------------------------------------------------------------


class SpanRecorder:
    """In-memory spans, written out once when the benchmark ends.

    A span is ``(span_id, parent_id, trace_id, name, start_ns, end_ns,
    attrs)``; spans of one request (or one grid round) share
    ``trace_id``.  Per-access boundaries are not spans: the proxies add
    them into counters instead.
    """

    def __init__(self):
        self.spans: List[tuple] = []
        self._next_id = 1

    def new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def add(self, name: str, start_ns: int, end_ns: int, trace_id: int,
            parent_id: int = 0, span_id: Optional[int] = None,
            **attrs: Any) -> int:
        span_id = self.new_id() if span_id is None else span_id
        self.spans.append((span_id, parent_id, trace_id, name, start_ns,
                           end_ns, attrs))
        return span_id

    def write(self, path: Path) -> None:
        """Gzipped JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            for span_id, parent, trace_id, name, start, end, attrs in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "trace": trace_id,
                    "name": name, "start_ns": start, "end_ns": end,
                    **({"attrs": attrs} if attrs else {}),
                }, separators=(",", ":")) + "\n")
