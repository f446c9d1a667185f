"""Benchmark: Figure 8 — generalisation to the Square Wave mechanism.

Paper claims: (a) the EMF family reconstructs the value distribution more
accurately (smaller Wasserstein distance) than Ostrich, which ignores the
poison values; (b) the gamma estimate sharpens as epsilon shrinks; (c)(d) the
SW-instantiated DAP variants beat Ostrich on mean-estimation MSE for most
budgets.
"""

from repro.experiments import format_fig8
from repro.experiments.fig8 import run_fig8_distribution, run_fig8_gamma, run_fig8_mse


def test_fig8_square_wave(benchmark, bench_scale_small):
    def run_all():
        return {
            "a": run_fig8_distribution(
                bench_scale_small, epsilons=(0.5, 1.0), rng=0
            ),
            "b": run_fig8_gamma(
                bench_scale_small, dataset_names=("Beta(2,5)",),
                epsilons=(0.0625, 0.5, 2.0), rng=0,
            ),
            "cd": run_fig8_mse(
                bench_scale_small, dataset_names=("Beta(2,5)",),
                epsilons=(1.0, 2.0), epsilon_min=1.0 / 2.0, rng=0,
            ),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print("\n" + format_fig8(results))

    # (a): the EMF family beats Ostrich on distribution reconstruction
    for epsilon in (0.5, 1.0):
        distances = {
            r.scheme: r.value for r in results["a"] if r.epsilon == epsilon
        }
        assert min(distances["EMF"], distances["EMF*"], distances["CEMF*"]) < distances["Ostrich"]

    # (b): gamma error at the smallest budget beats the largest budget
    gamma_errors = {r.epsilon: r.value for r in results["b"]}
    assert gamma_errors[0.0625] < gamma_errors[2.0] + 0.02

    # (c): SW-DAP beats Ostrich on mean MSE
    for epsilon in (1.0, 2.0):
        mse = {r.scheme: r.mse for r in results["cd"] if r.point["epsilon"] == epsilon}
        assert min(mse["SW-EMF"], mse["SW-EMF*"], mse["SW-CEMF*"]) < mse["Ostrich"]
