"""Trace workflow: generate, persist, exchange, and re-simulate traces.

Shows the trace I/O surface: caching a generated workload trace as a
compressed .npz, exporting it in the classic Dinero text format for
other cache simulators, and importing a Dinero trace to drive this one.

Run:  python examples/trace_workflow.py
"""

import io
import tempfile
from pathlib import Path

from repro.cpu import simulate_schemes
from repro.trace import (
    load_trace_npz,
    read_dinero,
    save_trace_npz,
    write_dinero,
)
from repro.workloads import get_workload


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-traces-"))

    # 1. Generate a deterministic workload trace and cache it on disk.
    trace = get_workload("mcf").trace(scale=0.1, seed=42)
    npz_path = workdir / "mcf.npz"
    save_trace_npz(trace, npz_path)
    reloaded = load_trace_npz(npz_path)
    print(f"Cached {reloaded!r} -> {npz_path} "
          f"({npz_path.stat().st_size / 1024:.0f} KiB)")

    # 2. Export for another simulator (Dinero 'label address' format).
    din_path = workdir / "mcf.din"
    with open(din_path, "w") as stream:
        records = write_dinero(reloaded, stream)
    print(f"Exported {records} Dinero records -> {din_path}")
    print("First lines:")
    with open(din_path) as stream:
        for _ in range(3):
            print("  " + next(stream).rstrip())

    # 3. Import a (here: hand-written) Dinero trace and simulate it:
    # 32 lines spaced 128 KB apart, revisited 60 times — all aliases of
    # one traditional set.
    lines = [f"{i % 3 == 0:d} {i * 131072:x}" for i in range(1, 33)]
    foreign = io.StringIO("\n".join(lines * 60))
    imported = read_dinero(foreign, name="foreign-trace")
    results = simulate_schemes(imported, ("base", "pmod"))
    base, pmod = results["base"], results["pmod"]
    print(f"\nImported trace: {imported!r}")
    print(f"  Base  L2 misses: {base.l2_misses}")
    print(f"  pMod  L2 misses: {pmod.l2_misses}")
    print(f"  (128 KB-strided writes: the classic set-alias pattern "
          f"pMod untangles: {base.l2_misses / max(1, pmod.l2_misses):.1f}x)")


if __name__ == "__main__":
    main()
