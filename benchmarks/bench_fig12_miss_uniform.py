"""Figure 12 bench: normalized L2 misses, uniform apps — prime hashing
must be pathology-resistant where the skewed cache is not."""

from repro.experiments import miss_reduction
from repro.experiments.miss_reduction import build_figure
from repro.workloads import UNIFORM_APPS


def test_fig12_miss_reduction_uniform(benchmark, engine):
    figure = benchmark.pedantic(
        build_figure,
        args=("Figure 12", UNIFORM_APPS, engine),
        rounds=1, iterations=1,
    )
    print()
    print(miss_reduction.render(figure))
    for app in figure.apps:
        assert figure.normalized[app]["pmod"] < 1.10, app
        assert figure.normalized[app]["pdisp"] < 1.10, app
    inflated = [a for a in figure.apps
                if figure.normalized[a]["skw+pdisp"] > 1.02]
    print(f"skw+pDisp inflates misses on: {inflated}")
    assert len(inflated) >= 1
