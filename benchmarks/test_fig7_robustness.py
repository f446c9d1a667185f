"""Benchmark: Figure 7 — robustness to the Byzantine share and poison shape.

Paper claim: on Taxi at epsilon = 1 the DAP variants keep a low MSE as the
Byzantine proportion grows to 40% and across poison-value distributions
(Uniform, Gaussian, Beta(1,6), Beta(6,1)), always beating Ostrich and
Trimming.
"""

from repro.experiments import format_fig7, run_fig7


def test_fig7_robustness(benchmark, bench_scale_small):
    records = benchmark.pedantic(
        run_fig7,
        args=(bench_scale_small,),
        kwargs=dict(
            poison_ranges=("[C/2,C]",),
            gammas=(0.1, 0.4),
            distributions=("Uniform", "Gaussian", "Beta(6,1)"),
            schemes=("DAP-EMF*", "DAP-CEMF*", "Ostrich", "Trimming"),
            rng=0,
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + format_fig7(records))

    # gamma sweep: DAP stays below the baselines even at 40% Byzantine users
    for gamma in (0.1, 0.4):
        mse = {
            r.scheme: r.mse
            for r in records
            if r.point["panel"] == "gamma" and r.point["gamma"] == gamma
        }
        assert mse["DAP-EMF*"] < mse["Ostrich"]
        assert mse["DAP-CEMF*"] < mse["Trimming"]

    # distribution sweep: DAP wins for every poison distribution
    for distribution in ("Uniform", "Gaussian", "Beta(6,1)"):
        mse = {
            r.scheme: r.mse
            for r in records
            if r.point["panel"] == "distribution"
            and r.point["distribution"] == distribution
        }
        assert mse["DAP-EMF*"] < mse["Ostrich"]
