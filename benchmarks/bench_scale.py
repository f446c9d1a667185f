"""Scale benchmark: streaming vs in-memory DAP collection.

Runs one DAP-CEMF* collection round (under a biased-Byzantine attack) at
increasing population sizes, once through the in-memory path
(``build_population`` + ``DAPProtocol.run``) and once through the streaming
path (``stream_population`` + ``DAPProtocol.run_stream``), and records wall
time and peak memory for each.

Every measurement runs in a fresh subprocess so peak-RSS numbers do not bleed
between configurations, and each child is run under an address-space cap
(``--mem-limit-gb``, default 4 GiB) — the bounded-memory contract the
streaming path is designed to satisfy.  At 10^7 users the in-memory path
materialises ~6 x 10^7 reports plus per-group copies and blows through the
cap, while the streaming path completes: that contrast is the point of the
benchmark, and what ``BENCH_scale.json`` records.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py --out BENCH_scale.json
    PYTHONPATH=src python benchmarks/bench_scale.py --sizes 100000 1000000
"""

from __future__ import annotations

import argparse

import harness

TAG = "bench_scale"
DEFAULT_SIZES = (100_000, 1_000_000, 10_000_000)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES))
    harness.add_child_options(
        parser, "BENCH_scale.json", nargs=2, metavar=("MODE", "N_USERS")
    )
    args = parser.parse_args(argv)

    if args.single is not None:
        mode, n_users = args.single
        return harness.child_main(
            lambda: harness.dap_round(mode, int(n_users)), args.mem_limit_gb
        )

    results = [
        harness.measure(
            TAG,
            f"{mode} @ {n_users:,} users",
            harness.child_command(__file__, (mode, n_users), args.mem_limit_gb),
            {"mode": mode, "n_users": n_users},
            args.timeout_s,
        )
        for n_users in args.sizes
        for mode in ("in-memory", "streaming")
    ]
    payload = {
        "benchmark": "streaming vs in-memory DAP collection",
        "config": {
            **harness.DAP_ROUND_CONFIG,
            "chunk_size": harness.CHUNK_SIZE,
            "dataset_samples": harness.DATASET_SAMPLES,
            "mem_limit_gb": args.mem_limit_gb,
            "seed": harness.SEED,
        },
        "results": results,
    }
    harness.write_json(TAG, args.out, payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
