"""Figure 8 bench: single-hash execution times, uniform apps."""

from repro.experiments import single_hash
from repro.experiments.single_hash import SINGLE_HASH_SCHEMES, build_figure
from repro.workloads import UNIFORM_APPS


def test_fig8_single_hash_uniform(benchmark, engine):
    figure = benchmark.pedantic(
        build_figure,
        args=("Figure 8", UNIFORM_APPS, SINGLE_HASH_SCHEMES, engine),
        rounds=1, iterations=1,
    )
    print()
    print(single_hash.render(figure))
    # Prime hashing must not slow any uniform application materially
    # (paper: worst case -2% on sparse).
    for app in figure.apps:
        assert figure.speedup(app, "pmod") > 0.95, app
        assert figure.speedup(app, "pdisp") > 0.95, app
    assert 0.97 < figure.average_speedup("pmod") < 1.05
