"""Benchmark: Figure 4 — dataset histograms and true means.

Paper claim (data description): the four numerical datasets have normalised
means of roughly -0.40, +0.41, +0.12 and -0.62; our offline substitutes must
land close so every downstream experiment measures the same regime.
"""

from repro.experiments import ExperimentScale, format_fig4, run_fig4


def test_fig4_dataset_summaries(benchmark):
    scale = ExperimentScale(n_users=50_000, n_trials=1)
    records = benchmark.pedantic(
        run_fig4, args=(scale,), kwargs=dict(rng=0), rounds=1, iterations=1
    )
    print("\n" + format_fig4(records))

    for record in records:
        assert abs(record.mean - record.paper_mean) < 0.08
        assert abs(record.histogram.sum() - 1.0) < 1e-9
