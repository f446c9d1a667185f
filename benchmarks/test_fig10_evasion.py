"""Benchmark: Figure 10 — robustness to evasive poison values.

Paper claim: sacrificing a small fraction ``a`` of poison reports to the
opposite side does not fool DAP (the MSE stays low); only around a ~ 20-30%
does the side decision start to flip, and by then the attack has given up a
proportional amount of its own impact (Equation 20).
"""

from repro.experiments import format_fig10, run_fig10


def test_fig10_evasion(benchmark, bench_scale_small):
    records = benchmark.pedantic(
        run_fig10,
        args=(bench_scale_small,),
        kwargs=dict(
            datasets=("Taxi",),
            evasive_fractions=(0.0, 0.1, 0.3, 0.5),
            epsilon=0.5,
            schemes=("DAP-EMF*", "DAP-CEMF*"),
            rng=0,
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + format_fig10(records))

    mse = {
        (r.scheme, r.point["evasive_fraction"]): r.mse for r in records
    }
    # small evasive fractions leave the estimate accurate (thresholds are
    # generous because the benchmark population is ~100x smaller than the
    # paper's; at epsilon = 1/2 the per-trial noise floor is a few 1e-2)
    for scheme in ("DAP-EMF*", "DAP-CEMF*"):
        assert mse[(scheme, 0.0)] < 0.1
        assert mse[(scheme, 0.1)] < 0.2
