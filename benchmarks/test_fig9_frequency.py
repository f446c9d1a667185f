"""Benchmark: Figure 9 (c)(d) — frequency estimation on categorical data.

Paper claim: with k-RR perturbation on the COVID-19 age-group data and poison
reports injected into one (panel c) or three (panel d) categories, the DAP
schemes achieve a frequency MSE well below Ostrich, and the gap persists
across budgets.
"""

from repro.experiments import format_fig9_frequency, run_fig9_frequency


def test_fig9_frequency_estimation(benchmark, bench_scale_small):
    records = benchmark.pedantic(
        run_fig9_frequency,
        args=(bench_scale_small,),
        kwargs=dict(
            epsilons=(0.5, 1.0, 2.0),
            panels={"c": (9,), "d": (2, 3, 4)},
            rng=0,
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + format_fig9_frequency(records))

    # DAP beats Ostrich for the single-category attack at every budget
    for epsilon in (0.5, 1.0, 2.0):
        mse = {r.scheme: r.mse for r in records if r.panel == "c" and r.epsilon == epsilon}
        assert mse["DAP-EMF*"] < mse["Ostrich"]

    # and for the multi-category attack at the larger budgets
    for epsilon in (1.0, 2.0):
        mse = {r.scheme: r.mse for r in records if r.panel == "d" and r.epsilon == epsilon}
        assert min(mse["DAP-EMF*"], mse["DAP-CEMF*"]) < mse["Ostrich"]
