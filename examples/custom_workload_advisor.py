"""Model your own kernel, get an indexing recommendation, verify it.

Workflow a cache architect would actually use:

1. Describe the kernel's access structure declaratively
   (CompositeWorkload).
2. Extract its stride spectrum and score every indexing function
   against it (the Section 2 metrics as a *predictor*).
3. Verify the prediction with a full hierarchy simulation.

Run:  python examples/custom_workload_advisor.py
"""

from repro.cpu import simulate_schemes
from repro.hashing import score_indexings, stride_spectrum
from repro.workloads import CompositeWorkload


def main() -> None:
    # A made-up stencil kernel: resident coefficient table, two big
    # streams, and a power-of-two-pitched transpose that aliases sets.
    spec = [
        {"kind": "resident_gather", "share": 0.35, "blocks": 3000},
        {"kind": "stream", "share": 0.40, "arrays": 2, "array_kb": 4096,
         "element_bytes": 64},
        {"kind": "alias_columns", "share": 0.25, "rows": 12, "repeats": 5},
    ]
    workload = CompositeWorkload("stencil3d", spec, write_fraction=0.3)
    trace = workload.trace(scale=0.4, seed=7)
    print(f"Modeled kernel: {trace!r}\n")

    # 2. Predict from the stride spectrum.
    spectrum = stride_spectrum(trace.block_addresses(64))
    print("Dominant block strides:")
    for component in spectrum[:5]:
        print(f"  stride {component.stride:6d} blocks "
              f"({component.weight:.0%} of transitions)")
    scores = score_indexings(spectrum)
    print("\nPredicted quality score per indexing (1.0 = ideal):")
    for key, score in sorted(scores.items(), key=lambda kv: kv[1]):
        print(f"  {key:12s} {score:10.2f}")

    # 3. Verify with the simulator.
    print("\nSimulated execution (normalized to Base):")
    results = simulate_schemes(trace, ("base", "8way", "xor", "pmod", "pdisp"))
    base = results.pop("base")
    for scheme, result in results.items():
        print(f"  {scheme:6s} speedup {result.speedup_over(base):5.2f}, "
              f"misses {result.l2_misses / base.l2_misses:5.2f} of Base")
    print("\nThe spectrum predicted the winner without running a "
          "simulation — that is the paper's Section 2 analysis at work.")


if __name__ == "__main__":
    main()
