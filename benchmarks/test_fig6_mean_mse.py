"""Benchmark: Figure 6 — MSE of mean estimation (DAP variants vs baselines).

Paper claim: across datasets, poison ranges and budgets, the three DAP
variants achieve an MSE orders of magnitude below Ostrich and Trimming, with
the EMF*/CEMF* post-processing beating plain EMF in most configurations.

The benchmark sweeps two representative panels (Taxi and Beta(5,2), poison
range [3C/4, C]) across three budgets; pass ``datasets=FIG6_DATASETS`` and
``poison_ranges=FIG6_RANGES`` to the driver to regenerate the full 16-panel
grid.
"""

from repro.experiments import format_fig6, run_fig6


def test_fig6_mean_estimation_mse(benchmark, bench_scale):
    records = benchmark.pedantic(
        run_fig6,
        args=(bench_scale,),
        kwargs=dict(
            datasets=("Taxi", "Beta(5,2)"),
            poison_ranges=("[3C/4,C]",),
            epsilons=(0.5, 1.0, 2.0),
            rng=0,
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + format_fig6(records))

    for dataset in ("Taxi", "Beta(5,2)"):
        for epsilon in (0.5, 1.0, 2.0):
            mse = {
                r.scheme: r.mse
                for r in records
                if r.point["dataset"] == dataset and r.point["epsilon"] == epsilon
            }
            # every DAP variant beats both baselines on this far-range attack
            for dap in ("DAP-EMF", "DAP-EMF*", "DAP-CEMF*"):
                assert mse[dap] < mse["Ostrich"], (dataset, epsilon, dap)
                assert mse[dap] < mse["Trimming"], (dataset, epsilon, dap)
            # the gap is large (the paper reports many orders of magnitude)
            assert mse["DAP-EMF*"] * 5 < mse["Ostrich"]
