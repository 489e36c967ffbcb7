"""Seed robustness: are the headline results an artifact of one RNG?

Every workload generator is seeded; this experiment re-runs a chosen
slice of the evaluation across several seeds and reports the spread of
each scheme's speedup.  The reproduction's claims should hold for
*every* seed, not on average — the tests assert the min across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Sequence

from repro.engine import (
    ExperimentContext,
    ExperimentSpec,
    SimulationEngine,
    register,
    render_artifact,
    run_experiment,
)
from repro.experiments.common import context_from_args, standard_argparser
from repro.reporting import format_table


@dataclass(frozen=True)
class SeedSpread:
    """Speedup statistics across seeds for one (workload, scheme)."""

    workload: str
    scheme: str
    speedups: tuple

    @property
    def minimum(self) -> float:
        return min(self.speedups)

    @property
    def maximum(self) -> float:
        return max(self.speedups)

    @property
    def mean(self) -> float:
        return sum(self.speedups) / len(self.speedups)

    @property
    def relative_spread(self) -> float:
        """(max − min) / mean — the run-to-run variability."""
        return (self.maximum - self.minimum) / self.mean


def run(workloads: Sequence[str] = ("tree", "mcf", "lu"),
        schemes: Sequence[str] = ("pmod", "pdisp"),
        seeds: Sequence[int] = (0, 1, 2),
        scale: float = 0.3,
        engine: SimulationEngine = None,
        ) -> List[SeedSpread]:
    """One :class:`SimulationEngine` per seed, a copy of ``engine`` (the
    default engine when none) at that seed and ``scale``: same machine,
    skewed-cache replacement and cache directory.  Each simulates its
    grid with one L1 pass per workload."""
    engine = engine or SimulationEngine()
    cache_dir = engine.cache.root.parent if engine.cache is not None else None
    engines = {}
    for seed in seeds:
        engines[seed] = SimulationEngine(
            replace(engine.config, scale=scale, seed=seed),
            machine=engine.machine, cache_dir=cache_dir)
        engines[seed].run_grid(workloads, ("base", *schemes))
    return [
        SeedSpread(workload, scheme, tuple(
            engines[seed].speedup(workload, scheme) for seed in seeds))
        for workload in workloads
        for scheme in schemes
    ]


def render(results: List[SeedSpread]) -> str:
    return format_table(
        ["workload", "scheme", "min", "mean", "max", "spread"],
        [
            [r.workload, r.scheme, f"{r.minimum:.3f}", f"{r.mean:.3f}",
             f"{r.maximum:.3f}", f"{r.relative_spread:.1%}"]
            for r in results
        ],
        title="Speedup across workload RNG seeds",
    )


def _build(ctx: ExperimentContext) -> Dict:
    results = run(
        workloads=tuple(ctx.param("workloads", ("tree", "mcf", "lu"))),
        schemes=tuple(ctx.param("schemes", ("pmod", "pdisp"))),
        seeds=tuple(ctx.param("seeds", (0, 1, 2))),
        scale=ctx.config.scale,
        engine=ctx.engine,
    )
    return {
        "spreads": [
            {"workload": r.workload, "scheme": r.scheme,
             "speedups": list(r.speedups)}
            for r in results
        ]
    }


def _render_artifact(artifact: Mapping) -> str:
    results = [
        SeedSpread(r["workload"], r["scheme"], tuple(r["speedups"]))
        for r in artifact["data"]["spreads"]
    ]
    return render(results)


register(ExperimentSpec(
    name="seeds",
    title="Ablation: seed robustness of the headline speedups",
    build=_build,
    render=_render_artifact,
))


def main() -> None:
    parser = standard_argparser(__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args()
    ctx = context_from_args(args, seeds=tuple(args.seeds))
    print(render_artifact(run_experiment("seeds", ctx)))


if __name__ == "__main__":
    main()
