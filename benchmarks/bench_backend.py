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
  for end-to-end context.  The probe's batched EM does one BLAS product
  plus one scatter and one gather over the poison columns per iteration,
  so its wall time follows its iteration count, not BLAS threading.

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
import os

import harness

TAG = "bench_backend"
DEFAULT_SIZES = (1_000_000, 10_000_000)
DEFAULT_BACKENDS = ("numpy", "fast")
QUICK_SIZES = (200_000,)


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
    harness.add_child_options(
        parser, "BENCH_backend.json", nargs=3, metavar=("MODE", "BACKEND", "N_USERS")
    )
    args = parser.parse_args(argv)

    if args.single is not None:
        mode, backend, n_users = args.single
        return harness.child_main(
            lambda: harness.dap_round(mode, int(n_users), backend), args.mem_limit_gb
        )

    if args.quick:
        sizes = list(QUICK_SIZES)
        modes = ["collect"]
        timeout_s = min(args.timeout_s, 300.0)
    else:
        sizes = args.sizes or list(DEFAULT_SIZES)
        modes = args.modes
        timeout_s = args.timeout_s

    results = [
        harness.measure(
            TAG,
            f"{mode}/{backend} @ {n_users:,} users",
            harness.child_command(
                __file__, (mode, backend, n_users), args.mem_limit_gb
            ),
            {"mode": mode, "backend": backend, "n_users": n_users},
            timeout_s,
        )
        for n_users in sizes
        for mode in modes
        for backend in args.backends
    ]
    payload = {
        "benchmark": "DAP collection round per array backend (sharded, 1 worker)",
        "config": {
            **harness.DAP_ROUND_CONFIG,
            "dataset_samples": harness.DATASET_SAMPLES,
            "mem_limit_gb": args.mem_limit_gb,
            "seed": harness.SEED,
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
    harness.write_json(TAG, args.out, payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
