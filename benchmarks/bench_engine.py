"""Engine timing benchmark: serial vs parallel on the fig6 quick grid.

Writes a ``BENCH_engine.json`` artifact recording wall-clock timings of the
unified experiment engine on the Figure 6 quick grid (Taxi, Poi [3C/4,C],
five budgets, QUICK_SCALE population), so the performance trajectory is
tracked across commits and CI runs:

* ``serial_seconds`` / ``parallel_seconds`` — the engine's exact
  (``batched=False``) path, one process vs a pool of ``--workers``;
* ``batched_serial_seconds`` / ``batched_parallel_seconds`` — the
  stacked-trials fast path;
* ``parallel_speedup`` — serial / parallel (bounded by ``n_cpus``: on a
  single-CPU host this hovers around 1x; the records are still verified
  identical);
* ``records_identical`` — bit-equality of the serial and parallel records.

Run with::

    PYTHONPATH=src python benchmarks/bench_engine.py --workers 4 --out BENCH_engine.json
"""

from __future__ import annotations

import argparse
import os
import platform
import time

from repro.engine import run_experiment
from repro.experiments.defaults import ExperimentScale, QUICK_SCALE
from repro.experiments.fig6 import build_fig6_spec

import harness


def record_key(records):
    return [(tuple(sorted(r.point.items())), r.scheme, r.mse, r.bias) for r in records]


def time_run(spec, seed, n_workers=None):
    start = time.perf_counter()
    records = run_experiment(spec, rng=seed, n_workers=n_workers)
    return time.perf_counter() - start, records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4, help="pool size for the parallel runs")
    parser.add_argument("--out", default="BENCH_engine.json", help="artifact path")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--users", type=int, default=QUICK_SCALE.n_users,
        help="population per trial (default: the fig6 quick grid's)",
    )
    parser.add_argument(
        "--trials", type=int, default=QUICK_SCALE.n_trials,
        help="trials per sweep point (default: the fig6 quick grid's)",
    )
    parser.add_argument(
        "--baseline-seconds", type=float, default=None,
        help="wall-clock of a reference implementation on the same grid and "
             "host (e.g. the pre-engine serial sweep), recorded for the "
             "perf trajectory",
    )
    args = parser.parse_args()
    scale = ExperimentScale(n_users=args.users, n_trials=args.trials, gamma=QUICK_SCALE.gamma)

    def spec(batched):
        # dataset sampling consumes the master stream before the sweep, as the
        # drivers do, so every timed run sees the identical workload
        return build_fig6_spec(scale, rng=args.seed, batched=batched)

    print(f"fig6 quick grid: n_users={scale.n_users}, n_trials={scale.n_trials}, "
          f"5 epsilons x 5 schemes; workers={args.workers}, cpus={os.cpu_count()}")

    serial_s, serial_records = time_run(spec(batched=False), args.seed)
    print(f"engine serial          : {serial_s:8.2f}s")
    parallel_s, parallel_records = time_run(spec(batched=False), args.seed, args.workers)
    print(f"engine parallel ({args.workers:2d})   : {parallel_s:8.2f}s")
    batched_serial_s, _ = time_run(spec(batched=True), args.seed)
    print(f"batched serial         : {batched_serial_s:8.2f}s")
    batched_parallel_s, _ = time_run(spec(batched=True), args.seed, args.workers)
    print(f"batched parallel ({args.workers:2d})  : {batched_parallel_s:8.2f}s")

    identical = record_key(serial_records) == record_key(parallel_records)
    artifact = {
        "benchmark": "fig6_quick_grid",
        "grid": {
            "datasets": ["Taxi"],
            "poison_ranges": ["[3C/4,C]"],
            "epsilons": [0.25, 0.5, 1.0, 1.5, 2.0],
            "n_users": scale.n_users,
            "n_trials": scale.n_trials,
            "n_schemes": 5,
        },
        "host": {
            "n_cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "workers": args.workers,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "batched_serial_seconds": round(batched_serial_s, 3),
        "batched_parallel_seconds": round(batched_parallel_s, 3),
        "parallel_speedup": round(serial_s / parallel_s, 3),
        "records_identical": identical,
    }
    if args.baseline_seconds is not None:
        artifact["baseline_seconds"] = round(args.baseline_seconds, 3)
        artifact["speedup_vs_baseline"] = round(
            args.baseline_seconds / min(serial_s, parallel_s, batched_parallel_s), 3
        )
    print(f"speedup {artifact['parallel_speedup']}x, records identical: {identical}")
    harness.write_json("bench_engine", args.out, artifact, indent=1)
    if not identical:
        raise SystemExit("parallel records diverged from serial records")


if __name__ == "__main__":
    main()
