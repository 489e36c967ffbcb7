"""Golden outputs for the paper-grid and miss-sweep checks.

Every ``--seed`` maps onto one of :data:`VARIANTS` input variants
(``seed % VARIANTS``); the golden files hold the expected output of
every variant.  Paper-grid goldens come from the scalar reference path
(:func:`repro.cpu.simulator.simulate_scheme`, one cell at a time, no
engine); miss-sweep goldens from :func:`repro.cache.simulate_misses`,
which the benchmark's tests cross-check against
:func:`repro.cache.fastsim.simulate_misses_reference`.

Regenerate (only when a change is *meant* to alter simulated results)::

    python3 perfbench/golden.py [--workload paper-grid|miss-sweep]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict

if __package__ in (None, ""):
    _root = Path(__file__).resolve().parents[1]
    sys.path[0] = str(_root)
    sys.path.insert(1, str(_root / "src"))

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Distinct input variants the goldens cover.
VARIANTS = 16


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def path_for(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload.replace('-', '_')}.json"


def load(workload: str) -> Dict[str, Any]:
    with open(path_for(workload)) as golden:
        return json.load(golden)


def paper_grid_cells(variant: int, apps=None, schemes=None,
                     scale: float = None) -> Dict[str, Dict[str, dict]]:
    """Every cell's ExecutionResult fields, from the scalar path."""
    from dataclasses import asdict

    from perfbench import paper_grid
    from repro.cpu.simulator import simulate_scheme
    from repro.workloads import get_workload

    apps = apps or paper_grid.APPS
    schemes = schemes or paper_grid.SCHEMES
    scale = paper_grid.SCALE if scale is None else scale
    cells: Dict[str, Dict[str, dict]] = {}
    for app in apps:
        trace = get_workload(app).trace(scale=scale, seed=variant)
        cells[app] = {scheme: asdict(simulate_scheme(trace, scheme))
                      for scheme in schemes}
    return cells


def miss_sweep_counts(variant: int, apps=None,
                      scale: float = None) -> Dict[str, Dict[str, Dict[str, int]]]:
    """Miss count of every (app, L2 size, scheme) call."""
    from perfbench import miss_sweep

    scale = miss_sweep.SCALE if scale is None else scale
    streams = miss_sweep.block_streams(variant, apps or miss_sweep.apps(),
                                       scale)
    counts: Dict[str, Dict[str, Dict[str, int]]] = {}
    for app, blocks in streams.items():
        for size_kb, scheme, misses in miss_sweep.sweep_app(blocks):
            counts.setdefault(app, {}).setdefault(str(size_kb), {})[
                scheme] = misses
    return counts


def generate(workload: str) -> Dict[str, Any]:
    from perfbench import harness, miss_sweep, paper_grid

    if workload == "paper-grid":
        build = paper_grid_cells
        config = {"path": "repro.cpu.simulator.simulate_scheme",
                  "apps": list(paper_grid.APPS),
                  "schemes": list(paper_grid.SCHEMES),
                  "scale": paper_grid.SCALE}
    elif workload == "miss-sweep":
        build = miss_sweep_counts
        config = {"path": "repro.cache.simulate_misses",
                  "apps": list(miss_sweep.apps()),
                  "schemes": list(miss_sweep.SCHEMES),
                  "sizes_kb": list(miss_sweep.SIZES_KB),
                  "assoc": miss_sweep.ASSOC, "scale": miss_sweep.SCALE}
    else:
        raise KeyError(f"no golden file for workload {workload!r}")
    return {
        "provenance": {"git_sha": harness.git_sha(), "variants": VARIANTS,
                       **config},
        "variants": {str(v): build(v) for v in range(VARIANTS)},
    }


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("paper-grid", "miss-sweep"),
                        action="append")
    args = parser.parse_args()
    for workload in args.workload or ("paper-grid", "miss-sweep"):
        doc = generate(workload)
        path = path_for(workload)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
