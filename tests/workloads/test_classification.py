"""End-to-end validation of the paper's Section 4 classification.

Runs every workload's L1 request stream into the Base (traditional) L2
and checks
that the stdev/mean > 0.5 uniformity criterion reproduces the paper's
7/16 split exactly.  This is the load-bearing property of the workload
substitution (DESIGN.md §4), so it is tested directly despite the cost.
"""

import pytest

from repro.cpu import build_l2
from repro.cpu.simulator import l2_request_stream, l2_set_counters
from repro.hashing import uniformity
from repro.workloads import all_workload_names, get_workload

SCALE = 0.35


def classify(name: str) -> float:
    workload = get_workload(name)
    trace = workload.trace(scale=SCALE, seed=0)
    set_accesses, _ = l2_set_counters(build_l2("base"),
                                      l2_request_stream(trace))
    return uniformity(set_accesses)


@pytest.mark.parametrize("name", sorted(all_workload_names()))
def test_uniformity_matches_paper(name):
    report = classify(name)
    expected = get_workload(name).expected_non_uniform
    assert report.non_uniform == expected, (
        f"{name}: ratio {report.ratio:.3f} classifies as "
        f"{'non-uniform' if report.non_uniform else 'uniform'}, paper says "
        f"{'non-uniform' if expected else 'uniform'}"
    )
