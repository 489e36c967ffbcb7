"""Table 4 bench: overall speedup summary and pathological-case counts."""

from repro.experiments import summary


def test_table4_summary(benchmark, engine):
    summaries = benchmark.pedantic(
        summary.run,
        kwargs=dict(config=engine.config, engine=engine),
        rounds=1, iterations=1,
    )
    print()
    print(summary.render(summaries))
    rows = {s.scheme: s for s in summaries}
    # Paper orderings: pMod/pDisp beat XOR on the non-uniform average;
    # uniform averages stay near 1.0 for every scheme.
    assert rows["pmod"].nonuniform_avg > rows["xor"].nonuniform_avg
    assert 1.1 < rows["pmod"].nonuniform_avg < 1.5
    assert rows["pdisp"].nonuniform_avg > 1.1
    for scheme, row in rows.items():
        assert 0.96 < row.uniform_avg < 1.05, scheme
