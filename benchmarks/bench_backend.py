"""Backend benchmark: the DAP collection round under each array backend.

Runs one DAP-CEMF* round at scale (biased-Byzantine attack, sharded
collection) under the ``numpy`` reference backend and the ``fast``
single-pass backend, and records wall time, peak memory and — via the
``collect.*`` sub-timers — exactly where the time goes.  Two modes per
backend:

* ``collect`` — the client-side collection round alone
  (``DAPProtocol.collect_sharded``: mechanism sampling, poison drawing,
  accumulation).  This is the work the backend layer accelerates and the
  headline number: the 10^7-user sharded collection round must come in well
  under 10 s on the fast backend.
* ``full`` — the whole protocol round (collection + probe + aggregation),
  for end-to-end context.  The probe/aggregate stages are EM linear algebra
  whose wall time is set by BLAS threading, not by this layer; on a
  single-core runner they dominate the total.

The JSON payload mirrors ``bench_shard.py`` (a ``results`` list of
``{mode, backend, n_users, ok, wall_time_s, peak_rss_mb, ...}`` rows) with
an extra per-stage ``profile`` per row.  Every measurement runs in a fresh
subprocess under an address-space cap (``--mem-limit-gb``, default 4 GiB).

Usage::

    PYTHONPATH=src python benchmarks/bench_backend.py --out BENCH_backend.json
    PYTHONPATH=src python benchmarks/bench_backend.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

EPSILON = 1.0
GAMMA = 0.25
SEED = 7
#: dataset records are sampled with replacement, so the dataset itself stays
#: small no matter the population size
DATASET_SAMPLES = 100_000
DEFAULT_SIZES = (1_000_000, 10_000_000)
DEFAULT_BACKENDS = ("numpy", "fast")
QUICK_SIZES = (200_000,)


def _peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_single(mode: str, backend: str, n_users: int, mem_limit_gb: float) -> dict:
    """Child entry point: one measurement, reported as JSON on stdout."""
    if mem_limit_gb > 0:
        limit = int(mem_limit_gb * 1024**3)
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    from repro.attacks.bba import BiasedByzantineAttack
    from repro.attacks.distributions import PAPER_POISON_RANGES
    from repro.backends import use_backend
    from repro.core.dap import DAPConfig, DAPProtocol
    from repro.datasets.synthetic import uniform_dataset
    from repro.simulation.population import build_population
    from repro.utils import profiling

    dataset = uniform_dataset(n_samples=DATASET_SAMPLES, rng=SEED)
    attack = BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"])
    protocol = DAPProtocol(DAPConfig(epsilon=EPSILON, estimator="cemf_star"))
    population = build_population(dataset, n_users, GAMMA, rng=SEED)

    before = profiling.snapshot()
    start = time.perf_counter()
    with use_backend(backend):
        if mode == "collect":
            accumulators = protocol.collect_sharded(
                population.normal_values,
                attack,
                population.n_byzantine,
                rng=SEED,
                n_shards=1,
                n_workers=1,
            )
            extra = {
                "n_reports": int(sum(a.n_reports for a in accumulators)),
            }
        elif mode == "full":
            result = protocol.run_sharded(
                population.normal_values,
                attack,
                population.n_byzantine,
                rng=SEED,
                n_shards=1,
                n_workers=1,
            )
            truth = population.true_mean
            extra = {
                "estimate": result.estimate,
                "true_mean": truth,
                "abs_error": abs(result.estimate - truth),
                "gamma_hat": result.gamma_hat,
            }
        else:
            raise ValueError(f"unknown mode {mode!r}")
    elapsed = time.perf_counter() - start
    profile = profiling.delta_since(before)

    return {
        "mode": mode,
        "backend": backend,
        "n_users": n_users,
        "ok": True,
        "wall_time_s": round(elapsed, 3),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "profile": {
            name: round(seconds, 3) for name, seconds in sorted(profile.items())
        },
        **extra,
    }


def run_child(
    mode: str, backend: str, n_users: int, mem_limit_gb: float, timeout_s: float
) -> dict:
    """Run one configuration in a fresh subprocess and parse its JSON report."""
    command = [
        sys.executable,
        __file__,
        "--single",
        mode,
        backend,
        str(n_users),
        "--mem-limit-gb",
        str(mem_limit_gb),
    ]
    start = time.perf_counter()
    try:
        child = subprocess.run(
            command, capture_output=True, text=True, timeout=timeout_s
        )
    except subprocess.TimeoutExpired:
        return {
            "mode": mode,
            "backend": backend,
            "n_users": n_users,
            "ok": False,
            "error": f"timed out after {timeout_s:g}s",
        }
    elapsed = time.perf_counter() - start
    if child.returncode != 0:
        tail = (child.stderr or "").strip().splitlines()
        return {
            "mode": mode,
            "backend": backend,
            "n_users": n_users,
            "ok": False,
            "error": tail[-1] if tail else f"exit code {child.returncode}",
            "wall_time_s": round(elapsed, 3),
        }
    return json.loads(child.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=None)
    parser.add_argument(
        "--backends", nargs="+", default=list(DEFAULT_BACKENDS),
        help="backends to measure (numpy, fast)",
    )
    parser.add_argument(
        "--modes", nargs="+", default=["collect", "full"],
        choices=["collect", "full"],
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"CI smoke: {QUICK_SIZES[0]:,} users, collect mode only",
    )
    parser.add_argument("--mem-limit-gb", type=float, default=4.0)
    parser.add_argument("--timeout-s", type=float, default=1800.0)
    parser.add_argument("--out", default="BENCH_backend.json")
    parser.add_argument(
        "--single", nargs=3, metavar=("MODE", "BACKEND", "N_USERS"), default=None
    )
    args = parser.parse_args(argv)

    if args.single is not None:
        mode, backend, n_users = args.single[0], args.single[1], int(args.single[2])
        try:
            report = run_single(mode, backend, n_users, args.mem_limit_gb)
        except MemoryError:
            print("MemoryError: exceeded the address-space cap", file=sys.stderr)
            return 3
        print(json.dumps(report))
        return 0

    if args.quick:
        sizes = list(QUICK_SIZES)
        modes = ["collect"]
        timeout_s = min(args.timeout_s, 300.0)
    else:
        sizes = args.sizes or list(DEFAULT_SIZES)
        modes = args.modes
        timeout_s = args.timeout_s

    results = []
    for n_users in sizes:
        for mode in modes:
            for backend in args.backends:
                print(
                    f"[bench_backend] {mode}/{backend} @ {n_users:,} users ...",
                    flush=True,
                )
                report = run_child(
                    mode, backend, n_users, args.mem_limit_gb, timeout_s
                )
                status = (
                    f"{report['wall_time_s']:.1f}s, {report['peak_rss_mb']:.0f} MiB"
                    if report.get("ok")
                    else f"FAILED ({report.get('error')})"
                )
                print(f"[bench_backend]   -> {status}", flush=True)
                results.append(report)

    payload = {
        "benchmark": "DAP collection round per array backend (sharded, 1 worker)",
        "config": {
            "epsilon": EPSILON,
            "gamma": GAMMA,
            "estimator": "cemf_star",
            "attack": "bba [C/2,C]",
            "dataset_samples": DATASET_SAMPLES,
            "mem_limit_gb": args.mem_limit_gb,
            "seed": SEED,
            "backends": list(args.backends),
            "cpu_count": os.cpu_count(),
        },
        "notes": (
            "'collect' rows time the client-side collection round alone "
            "(sampling + poison + accumulation) — the kernel families the "
            "backend layer accelerates; 'full' rows add the collector-side "
            "probe/aggregate EM. The probe's batched EM does one BLAS product "
            "plus one scatter and one gather over the poison columns per "
            "iteration, so its wall time follows its iteration count, not BLAS "
            "threading. Per-stage splits are in each row's 'profile'."
        ),
        "results": results,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"[bench_backend] wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
