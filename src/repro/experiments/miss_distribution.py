"""Figure 13: distribution of L2 misses across the cache sets for
``tree``, under Base and under pMod.

Under traditional indexing the vast majority of tree's misses pile
into a small fraction of the sets (the arena-allocation alignment);
prime modulo hashing flattens the distribution and with it removes the
misses themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

import numpy as np

from repro.cpu import MachineConfig, build_l2
from repro.cpu.simulator import l2_request_stream, l2_set_counters
from repro.engine import (
    ExperimentContext,
    ExperimentSpec,
    register,
    render_artifact,
    run_experiment,
)
from repro.experiments.common import (
    RunConfig,
    context_from_args,
    standard_argparser,
)
from repro.reporting import format_table, sparkline_series
from repro.trace.records import Trace
from repro.workloads import get_workload


@dataclass
class MissDistribution:
    """Per-set L2 miss counts for one scheme."""

    scheme: str
    set_misses: np.ndarray

    @property
    def total(self) -> int:
        return int(self.set_misses.sum())

    def top_fraction_share(self, fraction: float = 0.1) -> float:
        """Share of all misses carried by the busiest ``fraction`` of sets."""
        if self.total == 0:
            return 0.0
        ordered = np.sort(self.set_misses)[::-1]
        top = max(1, int(len(ordered) * fraction))
        return float(ordered[:top].sum() / self.total)

    def coefficient_of_variation(self) -> float:
        mean = self.set_misses.mean()
        return float(self.set_misses.std() / mean) if mean else 0.0


def _measure(trace: Trace, schemes: Sequence[str],
             machine: MachineConfig = None,
             skew_replacement: str = "enru") -> Dict[str, MissDistribution]:
    """Per-set L2 miss counts of each scheme behind one shared L1 pass
    over ``trace``."""
    machine = machine or MachineConfig.paper_default()
    stream = l2_request_stream(trace, machine)
    return {
        scheme: MissDistribution(scheme, l2_set_counters(
            build_l2(scheme, machine, skew_replacement), stream)[1])
        for scheme in schemes
    }


def run(config: RunConfig = RunConfig(), workload: str = "tree",
        schemes=("base", "pmod")) -> Dict[str, MissDistribution]:
    """Collect per-set miss counts for the requested schemes."""
    trace = get_workload(workload).trace(scale=config.scale, seed=config.seed)
    return _measure(trace, schemes,
                    skew_replacement=config.skew_replacement)


def render(results: Dict[str, MissDistribution],
           workload: str = "tree") -> str:
    sections = [f"Figure 13: L2 miss distribution across sets ({workload})"]
    for scheme, dist in results.items():
        sections.append(sparkline_series(
            list(range(len(dist.set_misses))),
            dist.set_misses.astype(float).tolist(),
            title=f"{scheme}: total misses {dist.total}",
        ))
    rows = [
        [
            dist.scheme,
            dist.total,
            f"{dist.top_fraction_share(0.1):.1%}",
            f"{dist.coefficient_of_variation():.2f}",
        ]
        for dist in results.values()
    ]
    sections.append(format_table(
        ["scheme", "total misses", "misses in top 10% of sets", "CV"],
        rows,
    ))
    return "\n\n".join(sections)


def _build(ctx: ExperimentContext) -> Dict:
    """Per-set miss arrays, cached as npz sidecars when the engine has
    a cache directory (the arrays are not part of ExecutionResult, so
    they get their own content-addressed entries)."""
    engine = ctx.engine
    workload = ctx.param("workload", "tree")
    schemes = tuple(ctx.param("schemes", ("base", "pmod")))
    results: Dict[str, MissDistribution] = {}
    todo = []
    for scheme in schemes:
        if engine.cache is not None:
            arrays = engine.cache.get_arrays(engine.key(workload, scheme))
            if arrays is not None and "set_misses" in arrays:
                results[scheme] = MissDistribution(scheme,
                                                   arrays["set_misses"])
                continue
        todo.append(scheme)
    if todo:
        fresh = _measure(engine.traces.get(workload), todo, engine.machine,
                         ctx.config.skew_replacement)
        for scheme, dist in fresh.items():
            results[scheme] = dist
            if engine.cache is not None:
                engine.cache.put_arrays(engine.key(workload, scheme),
                                        set_misses=dist.set_misses)
    return {
        "workload": workload,
        "distributions": {
            scheme: results[scheme].set_misses.astype(int).tolist()
            for scheme in schemes
        },
    }


def _render_artifact(artifact: Mapping) -> str:
    data = artifact["data"]
    results = {
        scheme: MissDistribution(scheme, np.asarray(counts))
        for scheme, counts in data["distributions"].items()
    }
    return render(results, workload=data["workload"])


register(ExperimentSpec(
    name="miss_distribution",
    title="Figure 13: per-set L2 miss distribution",
    build=_build,
    render=_render_artifact,
))


def main() -> None:
    parser = standard_argparser(__doc__)
    parser.add_argument("--workload", default="tree")
    args = parser.parse_args()
    ctx = context_from_args(args, workload=args.workload)
    print(render_artifact(run_experiment("miss_distribution", ctx)))


if __name__ == "__main__":
    main()
