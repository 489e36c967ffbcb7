"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Prints the provenance stamp and every metric by name and unit, then,
as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The result (with its stamp)
and, for a traced run, its spans are also written under ``.perfbench/``
at the repository root.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: workload name -> module under perfbench/
WORKLOADS = {
    "paper-grid": "paper_grid",
    "miss-sweep": "miss_sweep",
    "serve-zipf": "serve_zipf",
    "cluster-rw": "cluster_rw",
}

OUT_DIR = ROOT / ".perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        import repro  # noqa: F401
    except ImportError:
        print(f"error: the program (src/repro) is not under {ROOT}",
              file=sys.stderr)
        return 2

    from perfbench import harness
    from perfbench.metrics import END_TO_END, PER_LAYER

    trace = bool(args.trace)
    module = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    recorder = harness.SpanRecorder() if trace else None
    outcome = module.run(args.seed, args.seconds, trace, recorder)

    declared = PER_LAYER if trace else END_TO_END
    names = {m.name for m in declared}
    unknown = set(outcome.metrics) - names
    if unknown:
        raise RuntimeError(f"undeclared metrics: {sorted(unknown)}")
    if trace:
        outcome.metrics["trace.spans"] = len(recorder.spans)
    # layers this workload never calls into read 0
    metrics = {m.name: outcome.metrics.get(m.name, 0) for m in declared}
    bad = [n for n, v in metrics.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")

    stamp = harness.stamp(args.workload, args.seed, trace)
    tag = f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        recorder.write(OUT_DIR / f"spans-{tag}.jsonl.gz")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit}
                    for m in declared},
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(
        {**result, "failed_frac": outcome.failed_frac, "stamp": stamp,
         "details": outcome.details}, indent=1, default=str) + "\n")

    print("stamp " + json.dumps(stamp))
    print("details " + json.dumps(outcome.details, default=str))
    print(f"failed_frac {outcome.failed_frac!r} frac "
          f"({outcome.failed} of {outcome.attempted})")
    for m in declared:
        print(f"{m.name} {metrics[m.name]!r} {m.unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    sys.exit(main())
