"""Figure 10 bench: multi-hash execution times, uniform apps —
including the skewed caches' pathological slowdowns."""

from repro.experiments import multi_hash, single_hash
from repro.experiments.multi_hash import MULTI_HASH_SCHEMES
from repro.experiments.single_hash import build_figure
from repro.workloads import UNIFORM_APPS


def test_fig10_multi_hash_uniform(benchmark, engine):
    figure = benchmark.pedantic(
        build_figure,
        args=("Figure 10", UNIFORM_APPS, MULTI_HASH_SCHEMES, engine),
        rounds=1, iterations=1,
    )
    print()
    print(single_hash.render(figure))
    slow = multi_hash.pathological_cases(figure, "skw")
    print(f"SKW pathological cases: {slow}")
    # The skewed cache slows at least one uniform app by >1% but never
    # catastrophically (paper: up to 9%).
    assert len(slow) >= 1
    worst = min(figure.speedup(a, "skw") for a in figure.apps)
    assert 0.85 < worst < 0.995
    # pMod stays safe on the same group.
    assert min(figure.speedup(a, "pmod") for a in figure.apps) > 0.95
