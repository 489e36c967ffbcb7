"""Figure 7 bench: single-hash execution times, non-uniform apps."""

from repro.experiments import single_hash
from repro.experiments.single_hash import SINGLE_HASH_SCHEMES, build_figure
from repro.workloads import NONUNIFORM_APPS


def test_fig7_single_hash_nonuniform(benchmark, engine):
    figure = benchmark.pedantic(
        build_figure,
        args=("Figure 7", NONUNIFORM_APPS, SINGLE_HASH_SCHEMES, engine),
        rounds=1, iterations=1,
    )
    print()
    print(single_hash.render(figure))
    assert figure.average_speedup("pmod") > 1.15
    assert figure.average_speedup("pdisp") > 1.15
    assert figure.average_speedup("xor") <= figure.average_speedup("pmod")
    assert figure.average_speedup("8way") < 1.05
    assert figure.speedup("tree", "pmod") > 1.8
