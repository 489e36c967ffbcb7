"""One-shot markdown report over a complete evaluation.

``full_report`` renders every simulation-backed table and figure from a
:class:`~repro.engine.SimulationEngine` into a single markdown document — the machine-generated
counterpart of EXPERIMENTS.md:

    python -m repro.reporting.report --scale 0.5 --jobs 4 \
        --cache-dir .repro-cache > report.md
"""

from __future__ import annotations

from typing import List

from repro.experiments import (
    fragmentation,
    machine,
    miss_reduction,
    multi_hash,
    qualitative,
    single_hash,
    summary,
)
from repro.engine import SimulationEngine
from repro.experiments.common import context_from_args, standard_argparser
from repro.workloads import NONUNIFORM_APPS, UNIFORM_APPS


def _code_block(text: str) -> str:
    return "```\n" + text + "\n```"


def full_report(engine: SimulationEngine) -> str:
    """Markdown report of Tables 1-4 and the Figure 7-12 summaries."""
    config = engine.config
    sections: List[str] = [
        "# Prime-number cache indexing — evaluation report",
        f"Trace scale {config.scale}, seed {config.seed}, "
        f"skewed replacement `{config.skew_replacement}`.",
        "## Table 1 — fragmentation",
        _code_block(fragmentation.render(fragmentation.run())),
        "## Table 2 — hashing-function properties (measured)",
        _code_block(qualitative.render(qualitative.run())),
        "## Table 3 — machine parameters",
        _code_block(machine.render()),
    ]

    fig7 = single_hash.build_figure(
        "Figure 7 (non-uniform apps)", NONUNIFORM_APPS,
        single_hash.SINGLE_HASH_SCHEMES, engine)
    fig8 = single_hash.build_figure(
        "Figure 8 (uniform apps)", UNIFORM_APPS,
        single_hash.SINGLE_HASH_SCHEMES, engine)
    fig9 = single_hash.build_figure(
        "Figure 9 (non-uniform apps)", NONUNIFORM_APPS,
        multi_hash.MULTI_HASH_SCHEMES, engine)
    fig10 = single_hash.build_figure(
        "Figure 10 (uniform apps)", UNIFORM_APPS,
        multi_hash.MULTI_HASH_SCHEMES, engine)
    for figure in (fig7, fig8, fig9, fig10):
        sections.append(f"## {figure.title}")
        sections.append(_code_block(single_hash.render(figure)))

    fig11 = miss_reduction.build_figure(
        "Figure 11 (non-uniform apps)", NONUNIFORM_APPS, engine)
    fig12 = miss_reduction.build_figure(
        "Figure 12 (uniform apps)", UNIFORM_APPS, engine)
    for figure in (fig11, fig12):
        sections.append(f"## {figure.title}")
        sections.append(_code_block(miss_reduction.render(figure)))

    sections.append("## Table 4 — summary")
    sections.append(_code_block(summary.render(summary.run(config, engine))))
    return "\n\n".join(sections) + "\n"


def main() -> None:
    args = standard_argparser(__doc__).parse_args()
    engine = context_from_args(args).engine
    schemes = set(single_hash.SINGLE_HASH_SCHEMES)
    schemes |= set(multi_hash.MULTI_HASH_SCHEMES)
    schemes |= set(miss_reduction.MISS_SCHEMES)
    engine.run_grid((*NONUNIFORM_APPS, *UNIFORM_APPS), sorted(schemes))
    print(full_report(engine))


if __name__ == "__main__":
    main()
