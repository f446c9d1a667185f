"""Fault-injection benchmark: chaos must be invisible and cheap.

Runs the two execution surfaces of the pipeline — the sharded collection
round and the windowed service stream — once clean and once under a canned
fault plan (worker kill, task timeout, in-worker raise, two corrupted
checkpoints), and *enforces* the fault-tolerance contract, exiting nonzero
if any gate fails:

* **Bit-identity** — every record produced under the fault plan must be
  byte-identical to the clean run: merged accumulator snapshots and final
  estimates for the collection round, every deterministic window field for
  the service stream.  Recovery (retry, pool reincarnation, checkpoint
  rollback) replays pre-drawn seed blocks, so injected chaos may never leak
  into results.
* **Faults actually fired** — the injector must report every planned fault
  consumed; a gate that "passes" because nothing was injected is vacuous.
* **Bounded overhead** — the faulted run's wall time divided by the clean
  run's must stay under a generous bound (retried shards re-execute, but
  the recovery machinery itself must stay cheap).

Alongside the gates it records per-scenario wall times, the overhead ratio
and the resilience counters (retries / worker deaths / pool restarts /
quarantined checkpoints) observed during each faulted run.

Usage::

    PYTHONPATH=src python benchmarks/bench_faults.py --out BENCH_faults.json
    PYTHONPATH=src python benchmarks/bench_faults.py --quick
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
import time

import harness

TAG = "bench_faults"
EPSILON = 1.0
GAMMA = 0.25
SEED = 7
N_SHARDS = 4
N_WORKERS = 2

DEFAULT_USERS = 200_000
QUICK_USERS = 20_000
DEFAULT_WINDOWS = 8
QUICK_WINDOWS = 5
DEFAULT_WINDOW_SIZE = 20_000
QUICK_WINDOW_SIZE = 2_000

#: faulted wall time / clean wall time must stay under this
OVERHEAD_BOUND = 2.5
QUICK_OVERHEAD_BOUND = 5.0  # tiny workloads make the ratio noisy

COLLECT_PLAN = {
    "name": "bench_collect_chaos",
    "faults": [
        {"kind": "kill", "scope": "collect.shard", "task": 1, "attempt": 0},
        {"kind": "timeout", "scope": "collect.shard", "task": 0, "attempt": 0},
        {"kind": "raise", "scope": "collect.shard", "task": 2, "attempt": 0},
    ],
}

SERVICE_PLAN = {
    "name": "bench_service_chaos",
    "faults": [
        {"kind": "kill", "scope": "collect.shard", "task": 1, "attempt": 0},
        {"kind": "timeout", "scope": "collect.shard", "task": 0, "attempt": 0},
        {"kind": "checkpoint", "window": 1, "mode": "bitflip"},
        {"kind": "checkpoint", "window": 3, "mode": "truncate"},
    ],
}


def collect_round(n_users: int, fault_plan=None):
    """One sharded collection round; returns (fingerprint, seconds, fired)."""
    import numpy as np

    from repro.attacks import BiasedByzantineAttack, PAPER_POISON_RANGES
    from repro.core.dap import DAPConfig, DAPProtocol
    from repro.resilience import (
        DEFAULT_POLICY,
        FaultPlan,
        use_fault_plan,
        use_retry_policy,
    )
    import contextlib
    import dataclasses

    protocol = DAPProtocol(DAPConfig(epsilon=EPSILON, estimator="emf_star"))
    values = np.random.default_rng(SEED).uniform(-0.5, 0.5, size=n_users)
    n_byzantine = int(n_users * GAMMA)

    with contextlib.ExitStack() as stack:
        injector = None
        if fault_plan is not None:
            injector = stack.enter_context(
                use_fault_plan(FaultPlan.from_mapping(fault_plan))
            )
            stack.enter_context(
                use_retry_policy(
                    dataclasses.replace(DEFAULT_POLICY, backoff_base=0.0)
                )
            )
        start = time.perf_counter()
        accumulators = protocol.collect_sharded(
            values,
            BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"]),
            n_byzantine,
            rng=np.random.default_rng(SEED + 1),
            n_shards=N_SHARDS,
            n_workers=N_WORKERS,
        )
        result = protocol.aggregate_stats([acc.stats() for acc in accumulators])
        elapsed = time.perf_counter() - start
        fired = injector.fired if injector is not None else 0

    fingerprint = json.dumps(
        {
            "states": [acc.state_dict() for acc in accumulators],
            "estimate": repr(result.estimate),
            "gamma_hat": repr(result.gamma_hat),
        },
        sort_keys=True,
    )
    return fingerprint, elapsed, fired


def service_stream(n_windows: int, window_size: int, fault_plan=None):
    """One full service stream; returns (rows, seconds, fired, resilience)."""
    import contextlib
    import dataclasses

    from repro.resilience import (
        DEFAULT_POLICY,
        FaultPlan,
        use_fault_plan,
        use_retry_policy,
    )
    from repro.service import ServiceSpec, run_service

    spec = ServiceSpec(
        name="bench_faults",
        epsilon=EPSILON,
        window_size=window_size,
        n_windows=n_windows,
        dataset="Uniform",
        attack={"name": "bba", "poison_range": "[C/2,C]"},
        gamma=GAMMA,
        attack_start=0,
        seed=SEED,
        collect_shards=3,
        collect_workers=N_WORKERS,
    )
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = spec.default_checkpoint_path(tmp)
        with contextlib.ExitStack() as stack:
            injector = None
            if fault_plan is not None:
                injector = stack.enter_context(
                    use_fault_plan(FaultPlan.from_mapping(fault_plan))
                )
                stack.enter_context(
                    use_retry_policy(
                        dataclasses.replace(DEFAULT_POLICY, backoff_base=0.0)
                    )
                )
            start = time.perf_counter()
            result = run_service(spec, checkpoint_path=checkpoint)
            elapsed = time.perf_counter() - start
            fired = injector.fired if injector is not None else 0
    rows = [row.deterministic_view() for row in result.windows]
    return rows, elapsed, fired, dict(result.resilience)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("--windows", type=int, default=None)
    parser.add_argument("--window-size", type=int, default=None)
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke: {QUICK_USERS:,} users / {QUICK_WINDOWS} windows x "
        f"{QUICK_WINDOW_SIZE:,}; overhead bound relaxed to "
        f"{QUICK_OVERHEAD_BOUND:g}x",
    )
    parser.add_argument("--out", default="BENCH_faults.json")
    args = parser.parse_args(argv)

    if args.quick:
        n_users = args.users or QUICK_USERS
        n_windows = args.windows or QUICK_WINDOWS
        window_size = args.window_size or QUICK_WINDOW_SIZE
        bound = QUICK_OVERHEAD_BOUND
    else:
        n_users = args.users or DEFAULT_USERS
        n_windows = args.windows or DEFAULT_WINDOWS
        window_size = args.window_size or DEFAULT_WINDOW_SIZE
        bound = OVERHEAD_BOUND

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

    failures = []
    check = functools.partial(harness.check, TAG, failures)
    summary = {
        "quick": args.quick,
        "n_users": n_users,
        "n_windows": n_windows,
        "window_size": window_size,
        "overhead_bound": bound,
    }

    print(
        f"[bench_faults] collection round: {n_users:,} users, "
        f"{N_SHARDS} shards x {N_WORKERS} workers ...",
        flush=True,
    )
    clean_fp, clean_s, _ = collect_round(n_users)
    faulted_fp, faulted_s, fired = collect_round(n_users, COLLECT_PLAN)
    ratio = faulted_s / clean_s if clean_s > 0 else float("inf")
    print(
        f"[bench_faults]   -> clean {clean_s:.2f}s, faulted {faulted_s:.2f}s "
        f"({ratio:.2f}x), {fired} faults fired",
        flush=True,
    )
    summary["collect"] = {
        "clean_s": round(clean_s, 3),
        "faulted_s": round(faulted_s, 3),
        "overhead_ratio": round(ratio, 3),
        "faults_fired": fired,
        "faults_planned": len(COLLECT_PLAN["faults"]),
    }
    check(faulted_fp == clean_fp, "collection round bit-identical under faults")
    check(fired == len(COLLECT_PLAN["faults"]), "all planned collection faults fired")
    check(ratio <= bound, f"collection fault overhead {ratio:.2f}x <= {bound:g}x")

    print(
        f"[bench_faults] service stream: {n_windows} windows x "
        f"{window_size:,} users ...",
        flush=True,
    )
    clean_rows, clean_s, _, _ = service_stream(n_windows, window_size)
    faulted_rows, faulted_s, fired, resilience = service_stream(
        n_windows, window_size, SERVICE_PLAN
    )
    ratio = faulted_s / clean_s if clean_s > 0 else float("inf")
    print(
        f"[bench_faults]   -> clean {clean_s:.2f}s, faulted {faulted_s:.2f}s "
        f"({ratio:.2f}x), {fired} faults fired, resilience={resilience}",
        flush=True,
    )
    summary["service"] = {
        "clean_s": round(clean_s, 3),
        "faulted_s": round(faulted_s, 3),
        "overhead_ratio": round(ratio, 3),
        "faults_fired": fired,
        "faults_planned": len(SERVICE_PLAN["faults"]),
        "resilience": resilience,
    }
    check(faulted_rows == clean_rows, "service stream bit-identical under faults")
    check(fired == len(SERVICE_PLAN["faults"]), "all planned service faults fired")
    check(ratio <= bound, f"service fault overhead {ratio:.2f}x <= {bound:g}x")

    summary["failures"] = failures
    summary["ok"] = not failures
    harness.write_json(TAG, args.out, summary, indent=1, sort_keys=True)
    if failures:
        print(f"[bench_faults] {len(failures)} gate(s) FAILED", file=sys.stderr)
        return 1
    print("[bench_faults] all gates passed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
