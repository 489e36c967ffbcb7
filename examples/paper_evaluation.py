"""Run the paper's full evaluation pipeline end to end (scaled down).

Regenerates every table and figure at a reduced trace scale so the
whole thing completes in a few minutes; pass ``--scale 1.0`` for the
full-length traces used by EXPERIMENTS.md.

Run:  python examples/paper_evaluation.py [--scale 0.25] [--seed 0]
      [--jobs 4] [--cache-dir .repro-cache]
"""

from repro.experiments import (
    fragmentation,
    machine,
    miss_distribution,
    miss_reduction,
    multi_hash,
    qualitative,
    single_hash,
    stride_sweep,
    summary,
)
from repro.experiments.common import context_from_args, standard_argparser


def main() -> None:
    parser = standard_argparser(__doc__)
    parser.set_defaults(scale=0.25)
    parser.add_argument("--parallel", type=int, default=0, metavar="N",
                        help="deprecated alias for --jobs N")
    args = parser.parse_args()
    if args.parallel and not (args.jobs and args.jobs > 1):
        args.jobs = args.parallel
    engine = context_from_args(args).engine
    config = engine.config
    if engine.jobs > 1:
        from repro.cpu import SCHEMES
        from repro.workloads import all_workload_names
        print(f"Pre-simulating the 23x{len(SCHEMES)} grid with "
              f"{engine.jobs} workers...")
        engine.run_grid(all_workload_names(), SCHEMES)

    print(fragmentation.render(fragmentation.run()), "\n")
    print(qualitative.render(qualitative.run()), "\n")
    print(machine.render(), "\n")

    print("Running stride sweeps (Figures 5-6)...")
    # An odd step samples both parities (an even step would only ever
    # hit odd strides and hide traditional indexing's failures).
    print(stride_sweep.render(stride_sweep.run(stride_step=3)), "\n")

    print(f"Simulating 23 workloads x 8 cache schemes "
          f"(scale {config.scale}); this is the long part...")
    fig7, fig8 = single_hash.run(config, engine)
    print(single_hash.render(fig7), "\n")
    print(single_hash.render(fig8), "\n")

    fig9, fig10 = multi_hash.run(config, engine)
    print(single_hash.render(fig9), "\n")
    print(single_hash.render(fig10), "\n")

    fig11, fig12 = miss_reduction.run(config, engine)
    print(miss_reduction.render(fig11), "\n")
    print(miss_reduction.render(fig12), "\n")

    print(miss_distribution.render(miss_distribution.run(config)), "\n")
    print(summary.render(summary.run(config, engine)))


if __name__ == "__main__":
    main()
