"""Design-space exploration: indexing scheme x associativity.

Beyond the paper's fixed 4-way/8-way comparison, this sweeps the L2
associativity for each indexing function at constant capacity and
reports misses — quantifying the paper's headline claim from the other
direction: prime hashing at 2 ways beats traditional indexing at 8 on
conflict-heavy workloads, i.e. a better index is worth more than more
ways.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Sequence

from repro.cache import SetAssociativeCache
from repro.cpu import MachineConfig
from repro.cpu.simulator import l2_request_stream, simulate_l2
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
from repro.hashing import make_indexing
from repro.reporting import format_table
from repro.workloads import get_workload


@dataclass(frozen=True)
class DesignPoint:
    """One (indexing, associativity) configuration's results."""

    indexing: str
    assoc: int
    l2_misses: int
    cycles: float


def run(workload: str, config: RunConfig = RunConfig(),
        indexings: Sequence[str] = ("traditional", "xor", "pmod", "pdisp"),
        associativities: Sequence[int] = (1, 2, 4, 8),
        machine: MachineConfig = None) -> List[DesignPoint]:
    """Sweep the design space for one workload at constant L2 capacity
    (``machine``'s, Table 3's by default).

    ``indexings`` are :func:`~repro.hashing.make_indexing` keys.  The L1
    does not depend on the L2, so one L1 pass serves every point.
    """
    machine = machine or MachineConfig.paper_default()
    for assoc in associativities:
        if machine.l2_blocks % assoc:
            raise ValueError(
                f"capacity not divisible by associativity {assoc}")
    trace = get_workload(workload).trace(scale=config.scale, seed=config.seed)
    stream = l2_request_stream(trace, machine)
    points = []
    for key in indexings:
        for assoc in associativities:
            n_sets = machine.l2_blocks // assoc
            l2 = SetAssociativeCache(n_sets, assoc,
                                     make_indexing(key, n_sets))
            result = simulate_l2(trace, f"{key}/{assoc}", l2, stream,
                                 machine)
            points.append(DesignPoint(key, assoc, result.l2_misses,
                                      result.cycles))
    return points


def render(workload: str, points: List[DesignPoint]) -> str:
    indexings = sorted({p.indexing for p in points})
    associativities = sorted({p.assoc for p in points})
    by_key: Dict[tuple, DesignPoint] = {
        (p.indexing, p.assoc): p for p in points
    }
    rows = []
    for key in indexings:
        rows.append(
            [key] + [by_key[(key, a)].l2_misses for a in associativities]
        )
    return format_table(
        ["indexing \\ ways"] + [str(a) for a in associativities],
        rows,
        title=f"L2 misses by indexing x associativity — {workload} "
              "(constant 512 KB)",
    )


def _build(ctx: ExperimentContext) -> Dict:
    workload = ctx.param("workload", "tree")
    points = run(
        workload, ctx.config,
        indexings=tuple(ctx.param("indexings",
                                  ("traditional", "xor", "pmod", "pdisp"))),
        associativities=tuple(ctx.param("associativities", (1, 2, 4, 8))),
        machine=ctx.engine.machine,
    )
    return {"workload": workload, "points": [asdict(p) for p in points]}


def _render_artifact(artifact: Mapping) -> str:
    data = artifact["data"]
    return render(data["workload"],
                  [DesignPoint(**p) for p in data["points"]])


register(ExperimentSpec(
    name="design_space",
    title="Extension: indexing x associativity design-space sweep",
    build=_build,
    render=_render_artifact,
))


def main() -> None:
    parser = standard_argparser(__doc__)
    parser.add_argument("--workload", default="tree")
    args = parser.parse_args()
    ctx = context_from_args(args, workload=args.workload)
    print(render_artifact(run_experiment("design_space", ctx)))


if __name__ == "__main__":
    main()
