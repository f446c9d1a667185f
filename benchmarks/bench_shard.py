"""Shard benchmark: sharded vs streaming DAP collection at scale.

Runs one DAP-CEMF* collection round (under a biased-Byzantine attack) at
large population sizes, once through the single-process streaming path
(``stream_population`` + ``DAPProtocol.run_stream`` — the committed
``BENCH_scale.json`` baseline) and once through the sharded path
(``build_population`` + ``DAPProtocol.run_sharded``) at several shard-worker
counts.  Wall time and peak memory are recorded per configuration.

The JSON payload has the same shape as ``bench_scale.py`` (one ``results``
list of ``{mode, n_users, ok, wall_time_s, peak_rss_mb, ...}`` rows), so the
two benchmark trajectories are directly comparable; sharded rows additionally
record their ``collect_workers``.

Every measurement runs in a fresh subprocess under an address-space cap
(``--mem-limit-gb``, default 4 GiB), like ``bench_scale.py``: the sharded
path materialises only the raw values (~80 MiB at 10^7 users), never the
reports, so it must stay within the same budget the streaming path satisfies.

The sharded estimate must not depend on the worker count: the script exits
nonzero, naming the population sizes, when the sharded rows of one size
disagree.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard.py --out BENCH_shard.json
    PYTHONPATH=src python benchmarks/bench_shard.py --sizes 1000000 --workers 1 4
"""

from __future__ import annotations

import argparse
import sys

import harness

TAG = "bench_shard"
DEFAULT_SIZES = (1_000_000, 10_000_000)
DEFAULT_WORKERS = (1, 2, 4, 8)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES))
    parser.add_argument(
        "--workers", type=int, nargs="+", default=list(DEFAULT_WORKERS)
    )
    harness.add_child_options(
        parser, "BENCH_shard.json", nargs=2, metavar=("MODE", "N_USERS")
    )
    args = parser.parse_args(argv)

    if args.single is not None:
        mode, n_users = args.single
        return harness.child_main(
            lambda: harness.dap_round(mode, int(n_users)), args.mem_limit_gb
        )

    results = []
    estimates: dict = {}
    for n_users in args.sizes:
        for mode in ["streaming"] + [f"sharded-{w}" for w in args.workers]:
            report = harness.measure(
                TAG,
                f"{mode} @ {n_users:,} users",
                harness.child_command(__file__, (mode, n_users), args.mem_limit_gb),
                {"mode": mode, "n_users": n_users},
                args.timeout_s,
            )
            results.append(report)
            if report.get("ok") and mode.startswith("sharded-"):
                estimates.setdefault(n_users, set()).add(report["estimate"])

    payload = {
        "benchmark": "sharded vs streaming DAP collection",
        "config": {
            **harness.DAP_ROUND_CONFIG,
            "chunk_size": harness.CHUNK_SIZE,
            "dataset_samples": harness.DATASET_SAMPLES,
            "mem_limit_gb": args.mem_limit_gb,
            "seed": harness.SEED,
            "workers": list(args.workers),
        },
        "results": results,
    }
    harness.write_json(TAG, args.out, payload)

    diverged = {n: sorted(v) for n, v in estimates.items() if len(v) > 1}
    for n_users, values in diverged.items():
        print(
            f"[{TAG}] FAILED: sharded estimates diverge at {n_users:,} users: "
            f"{values}",
            file=sys.stderr,
        )
    return 1 if diverged else 0


if __name__ == "__main__":
    raise SystemExit(main())
