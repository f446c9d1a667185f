"""Benchmark: Figure 9 (a)(b) — DAP vs the k-means-based defence.

Paper claims: (a) under a Biased Byzantine Attack the DAP variants beat the
k-means defence by several orders of magnitude; (b) under an input
manipulation attack, combining the EMF machinery with the k-means defence
("EMF-based") improves on plain k-means by roughly 30%.
"""

from repro.experiments import (
    format_fig9_defense_comparison,
    run_fig9_defense_comparison,
)


def test_fig9_kmeans_comparison(benchmark, bench_scale_small):
    records = benchmark.pedantic(
        run_fig9_defense_comparison,
        args=(bench_scale_small,),
        kwargs=dict(
            epsilons=(1.0, 2.0),
            sampling_rates=(0.1, 0.5),
            include_ima_panel=True,
            ima_inputs=(1.0,),
            rng=0,
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + format_fig9_defense_comparison(records))

    # (a): every DAP variant beats every k-means parameterisation under BBA
    for epsilon in (1.0, 2.0):
        mse = {
            r.scheme: r.mse
            for r in records
            if r.point.get("panel") == "a" and r.point["epsilon"] == epsilon
        }
        best_kmeans = min(v for k, v in mse.items() if k.startswith("K-means"))
        for dap in ("DAP-EMF*", "DAP-CEMF*"):
            assert mse[dap] < best_kmeans, (epsilon, dap)

    # (b): the EMF-based integration stays in the same ballpark as plain
    # k-means under an input manipulation attack.  The paper's ~30% gain is
    # measured at 10^6 users with 10^6 sampled subsets; at this benchmark
    # scale the two estimators are dominated by sampling noise, so we only
    # check that the integration does not blow up.
    panel_b = [r for r in records if r.point.get("panel") == "b"]
    for rate in (0.1, 0.5):
        mse = {
            r.scheme: r.mse for r in panel_b if r.point["sampling_rate"] == rate
        }
        emf_based = mse[f"EMF-based(beta={rate:g})"]
        plain = mse[f"K-means(beta={rate:g})"]
        assert emf_based < max(10 * plain, 0.1)
