"""Figure 9 bench: multi-hash execution times, non-uniform apps."""

from repro.experiments import single_hash
from repro.experiments.multi_hash import MULTI_HASH_SCHEMES
from repro.experiments.single_hash import build_figure
from repro.workloads import NONUNIFORM_APPS


def test_fig9_multi_hash_nonuniform(benchmark, engine):
    figure = benchmark.pedantic(
        build_figure,
        args=("Figure 9", NONUNIFORM_APPS, MULTI_HASH_SCHEMES, engine),
        rounds=1, iterations=1,
    )
    print()
    print(single_hash.render(figure))
    # Skewed + pDisp matches or beats the best single hash on average...
    assert figure.average_speedup("skw+pdisp") >= \
        figure.average_speedup("pmod") - 0.03
    # ...and is the family that helps cg most (margin is small at
    # reduced trace scales, so allow a sliver of noise).
    assert figure.speedup("cg", "skw+pdisp") >= \
        figure.speedup("cg", "pmod") - 0.01
