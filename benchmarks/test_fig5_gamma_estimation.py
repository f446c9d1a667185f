"""Benchmark: Figure 5 — accuracy of the Byzantine-proportion estimate.

Paper claims: (a)(b) |gamma_hat - gamma| shrinks as epsilon shrinks; (c) the
false-positive rate at the smallest budget is a few percent; (d) an input
manipulation attack stays close to the false-positive level (EMF cannot see
honestly perturbed poison inputs).
"""

from repro.experiments import format_fig5, run_fig5


def test_fig5_gamma_estimation(benchmark, bench_scale):
    records = benchmark.pedantic(
        run_fig5,
        args=(bench_scale,),
        kwargs=dict(
            epsilons=(2.0, 0.5, 0.0625),
            gammas=(0.1, 0.4),
            poison_ranges=("[C/2,C]", "[O,C]"),
            rng=0,
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + format_fig5(records))

    # (a)(b): error at the smallest budget beats the error at the largest
    for panel, gamma in (("a", 0.1), ("b", 0.4)):
        for range_name in ("[C/2,C]", "[O,C]"):
            series = {
                r.epsilon: r.gamma_error
                for r in records
                if r.panel == panel and r.poison_range == range_name
            }
            assert series[0.0625] < series[2.0] + 0.02

    # (c): small false-positive rate at the smallest budget
    false_positives = [r for r in records if r.panel == "c" and r.epsilon == 0.0625]
    assert all(r.gamma_hat < 0.1 for r in false_positives)

    # (d): at the small budgets where EMF probing is accurate, an IMA stays
    # near the false-positive level, far below the true 25% Byzantine share
    ima_small_eps = [r for r in records if r.panel == "d" and r.epsilon == 0.0625]
    assert all(r.gamma_hat < 0.15 for r in ima_small_eps)
