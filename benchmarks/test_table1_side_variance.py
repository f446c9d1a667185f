"""Benchmark: Table I — reconstructed-histogram variance, left vs right probing.

Paper claim: the variance of the EMF-reconstructed normal histogram is orders
of magnitude smaller when the poison buckets sit on the true poisoned side, so
Algorithm 3's side decision is reliable across budgets and poison ranges.
"""

from repro.experiments import format_table1, run_table1
from repro.experiments.table1 import TABLE1_RANGES


def test_table1_side_variance(benchmark, bench_scale):
    records = benchmark.pedantic(
        run_table1,
        args=(bench_scale,),
        kwargs=dict(
            epsilons=(2.0, 0.5, 0.125),
            poison_ranges=TABLE1_RANGES,
            rng=0,
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + format_table1(records))

    # shape check: the correct (right) side always has the smaller variance
    for record in records:
        assert record.variance_right < record.variance_left
        assert record.selected_side == "right"
