"""Figure 11 bench: normalized L2 misses, non-uniform apps."""

from repro.experiments import miss_reduction
from repro.experiments.miss_reduction import build_figure
from repro.workloads import NONUNIFORM_APPS


def test_fig11_miss_reduction_nonuniform(benchmark, engine):
    figure = benchmark.pedantic(
        build_figure,
        args=("Figure 11", NONUNIFORM_APPS, engine),
        rounds=1, iterations=1,
    )
    print()
    print(miss_reduction.render(figure))
    assert figure.average("pmod") < 0.8       # substantial reduction
    assert figure.normalized["tree"]["pmod"] < 0.5
    # skw+pDisp can beat even full associativity on cg (Section 5.5).
    assert figure.normalized["cg"]["skw+pdisp"] <= \
        figure.normalized["cg"]["fa"] + 0.03
