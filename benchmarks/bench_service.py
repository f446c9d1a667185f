"""Sustained-throughput benchmark for the continuous-service runtime.

Measures the windowed aggregation service (``repro.service``) on a long
attack stream and *enforces* its three load-bearing claims, exiting nonzero
if any fails:

* **Bounded memory** — the service state is sufficient statistics only, so
  peak RSS must stay flat as the cumulative population grows past 10^6
  users (last-quarter peak vs first-quarter peak).
* **Warm-started probing** — warm-starting each window's probe EMs from the
  previous window's converged weights must select the same poisoned side in
  every window as cold probing, and the steady-state (final third of the
  stream) median per-window probe time must be >= 3x faster.
* **Kill/resume bit-identity** — a service SIGKILLed mid-stream and resumed
  from its checkpoint must finish with window results bit-identical to the
  uninterrupted run (every deterministic field of every window).

Alongside the gates it records sustained ingest throughput (reports/sec and
users/sec over the whole run, checkpointing included) and steady-state
window latency.

Each full-stream measurement runs in a fresh subprocess under an
address-space cap; the kill/resume scenario SIGKILLs a live child mid-stream
(no cooperative shutdown) and resumes it in a new process.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py --out BENCH_service.json
    PYTHONPATH=src python benchmarks/bench_service.py --quick
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import harness

TAG = "bench_service"
DEFAULT_WINDOWS = 24
DEFAULT_WINDOW_SIZE = 50_000
QUICK_WINDOWS = 8
QUICK_WINDOW_SIZE = 5_000
#: the window after which the kill/resume child is SIGKILLed
KILL_AFTER_FRACTION = 0.4


def bench_spec(warm: bool, n_windows: int, window_size: int):
    from repro.service import ServiceSpec

    return ServiceSpec(
        name=f"bench_service_{'warm' if warm else 'cold'}",
        epsilon=harness.EPSILON,
        window_size=window_size,
        n_windows=n_windows,
        dataset="Uniform",
        attack={"name": "bba", "poison_range": "[C/2,C]"},
        gamma=harness.GAMMA,
        attack_start=0,
        seed=harness.SEED,
        warm_probe=warm,
    )


def run_single(mode: str, n_windows: int, window_size: int, checkpoint: str) -> dict:
    """Child entry point: run the full stream (resuming any checkpoint)."""
    from repro.service import run_service

    spec = bench_spec(mode == "warm", n_windows, window_size)
    start = time.perf_counter()
    result = run_service(spec, checkpoint_path=checkpoint or None)
    elapsed = time.perf_counter() - start
    rows = [row.to_dict() for row in result.windows]
    computed = [row for row in rows if row["window"] >= result.resumed_from]
    return {
        "mode": mode,
        "ok": True,
        "n_windows": n_windows,
        "window_size": window_size,
        "resumed_from": result.resumed_from,
        "wall_time_s": round(elapsed, 3),
        "users_per_s": round(len(computed) * window_size / elapsed, 1),
        "reports_per_s": round(
            (rows[-1]["n_reports_cum"] - (
                rows[result.resumed_from - 1]["n_reports_cum"]
                if result.resumed_from
                else 0
            ))
            / elapsed,
            1,
        ),
        "flagged_window": result.flagged_window,
        "windows": rows,
    }


def child_command(
    mode: str, n_windows: int, window_size: int, checkpoint: str, mem_limit_gb: float
) -> list:
    return harness.child_command(
        __file__, (mode, n_windows, window_size, checkpoint), mem_limit_gb
    )


def run_kill_resume(
    n_windows: int, window_size: int, mem_limit_gb: float, timeout_s: float
) -> dict:
    """SIGKILL a live service child mid-stream, then resume it to completion."""
    kill_after = max(1, int(n_windows * KILL_AFTER_FRACTION))
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = os.path.join(tmp, "bench.checkpoint.json")
        command = child_command(
            "warm", n_windows, window_size, checkpoint, mem_limit_gb
        )
        victim = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        deadline = time.monotonic() + timeout_s
        killed_at = None
        while time.monotonic() < deadline and victim.poll() is None:
            if os.path.exists(checkpoint):
                try:
                    with open(checkpoint) as handle:
                        progressed = json.load(handle).get("next_window", 0)
                except (ValueError, OSError):
                    progressed = 0  # mid-replace; retry
                if progressed >= kill_after:
                    victim.send_signal(signal.SIGKILL)
                    killed_at = progressed
                    break
            time.sleep(0.02)
        victim.wait()
        if killed_at is None or killed_at >= n_windows:
            return {
                "mode": "kill-resume",
                "ok": False,
                "error": (
                    "service finished before it could be killed mid-stream "
                    f"(killed_at={killed_at})"
                ),
            }
        report = harness.run_child(command, {"mode": "warm"}, timeout_s)
    report["mode"] = "kill-resume"
    report["killed_at_window"] = killed_at
    return report


def deterministic_rows(report: dict) -> list:
    from repro.service.runtime import WindowResult

    return [
        {key: row[key] for key in WindowResult.DETERMINISTIC_FIELDS}
        for row in report.get("windows", [])
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--windows", type=int, default=None)
    parser.add_argument("--window-size", type=int, default=None)
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke: {QUICK_WINDOWS} windows x {QUICK_WINDOW_SIZE:,} users; "
        "the >=3x warm-speedup gate is recorded but not enforced (the short "
        "stream never reaches steady state)",
    )
    harness.add_child_options(
        parser,
        "BENCH_service.json",
        nargs=4,
        metavar=("MODE", "N_WINDOWS", "WINDOW_SIZE", "CHECKPOINT"),
    )
    args = parser.parse_args(argv)

    if args.single is not None:
        mode, n_windows, window_size, checkpoint = args.single
        return harness.child_main(
            lambda: run_single(mode, int(n_windows), int(window_size), checkpoint),
            args.mem_limit_gb,
        )

    if args.quick:
        n_windows = args.windows or QUICK_WINDOWS
        window_size = args.window_size or QUICK_WINDOW_SIZE
        timeout_s = min(args.timeout_s, 600.0)
    else:
        n_windows = args.windows or DEFAULT_WINDOWS
        window_size = args.window_size or DEFAULT_WINDOW_SIZE
        timeout_s = args.timeout_s

    results = []
    reports = {}
    for mode in ("warm", "cold"):
        with tempfile.TemporaryDirectory() as tmp:
            report = harness.measure(
                TAG,
                f"{mode} stream: {n_windows} windows x {window_size:,} users",
                child_command(
                    mode,
                    n_windows,
                    window_size,
                    os.path.join(tmp, "bench.checkpoint.json"),
                    args.mem_limit_gb,
                ),
                {"mode": mode},
                timeout_s,
                status=lambda r: (
                    f"{r['wall_time_s']:.1f}s, {r['users_per_s']:,.0f} users/s"
                ),
            )
        reports[mode] = report
        results.append(report)

    print(f"[{TAG}] kill/resume stream ...", flush=True)
    kill_report = run_kill_resume(n_windows, window_size, args.mem_limit_gb, timeout_s)
    status = (
        f"killed at window {kill_report['killed_at_window']}, resumed from "
        f"{kill_report['resumed_from']}"
        if kill_report.get("ok")
        else f"FAILED ({kill_report.get('error')})"
    )
    print(f"[{TAG}]   -> {status}", flush=True)
    results.append(kill_report)

    failures = []
    check = functools.partial(harness.check, TAG, failures)
    warm, cold = reports["warm"], reports["cold"]
    summary = {}
    check(bool(warm.get("ok")), "warm stream completed")
    check(bool(cold.get("ok")), "cold stream completed")
    check(bool(kill_report.get("ok")), "kill/resume stream completed")

    if warm.get("ok"):
        rows = warm["windows"]
        quarter = max(1, len(rows) // 4)
        early = max(row["peak_rss_mb"] for row in rows[:quarter])
        late = max(row["peak_rss_mb"] for row in rows[-quarter:])
        summary["cumulative_users"] = rows[-1]["n_users_cum"]
        summary["cumulative_reports"] = rows[-1]["n_reports_cum"]
        summary["peak_rss_mb_early"] = round(early, 1)
        summary["peak_rss_mb_late"] = round(late, 1)
        summary["users_per_s"] = warm["users_per_s"]
        summary["reports_per_s"] = warm["reports_per_s"]
        if not args.quick:
            check(
                rows[-1]["n_users_cum"] >= 1_000_000,
                f"cumulative population past 10^6 users "
                f"({rows[-1]['n_users_cum']:,})",
            )
        check(
            late <= early * 1.5 + 200.0,
            f"peak RSS bounded as the stream grows "
            f"(first-quarter max {early:.0f} MiB, last-quarter max {late:.0f} MiB)",
        )

    if warm.get("ok") and cold.get("ok"):
        warm_sides = [row["poisoned_side"] for row in warm["windows"]]
        cold_sides = [row["poisoned_side"] for row in cold["windows"]]
        check(
            warm_sides == cold_sides,
            "warm probing selects the same side as cold in every window",
        )
        steady = max(1, len(warm["windows"]) // 3)
        warm_probe = statistics.median(
            row["probe_seconds"] for row in warm["windows"][-steady:]
        )
        cold_probe = statistics.median(
            row["probe_seconds"] for row in cold["windows"][-steady:]
        )
        speedup = cold_probe / warm_probe if warm_probe > 0 else float("inf")
        summary["steady_state_window_latency_s"] = round(
            statistics.median(
                row["window_seconds"] for row in warm["windows"][-steady:]
            ),
            4,
        )
        summary["steady_state_probe_s_warm"] = round(warm_probe, 4)
        summary["steady_state_probe_s_cold"] = round(cold_probe, 4)
        summary["warm_probe_speedup"] = round(speedup, 2)
        label = (
            f"steady-state warm probe >= 3x faster than cold "
            f"({speedup:.1f}x: {cold_probe:.3f}s -> {warm_probe:.3f}s)"
        )
        if args.quick:
            print(f"[{TAG}] INFO: {label} (not enforced with --quick)", flush=True)
        else:
            check(speedup >= 3.0, label)

    if warm.get("ok") and kill_report.get("ok"):
        check(
            kill_report["resumed_from"] >= kill_report["killed_at_window"],
            "resume continued from the checkpoint instead of recomputing",
        )
        check(
            deterministic_rows(kill_report) == deterministic_rows(warm),
            "kill/resume window results bit-identical to the uninterrupted run",
        )

    payload = {
        "benchmark": "continuous-service runtime: sustained windowed aggregation",
        "config": {
            **harness.DAP_ROUND_CONFIG,
            "n_windows": n_windows,
            "window_size": window_size,
            "seed": harness.SEED,
            "mem_limit_gb": args.mem_limit_gb,
            "quick": args.quick,
            "cpu_count": os.cpu_count(),
        },
        "notes": (
            "'warm'/'cold' rows run the full stream in a fresh subprocess "
            "(checkpointing every window included in the throughput numbers); "
            "'kill-resume' SIGKILLs a live child mid-stream and resumes it in "
            "a new process. The checks gate the service's claims: bounded "
            "peak RSS, warm probing >= 3x faster at steady state with "
            "identical side selections, and bit-identical kill/resume."
        ),
        "summary": summary,
        "checks_failed": failures,
        "results": results,
    }
    harness.write_json(TAG, args.out, payload)
    if failures:
        print(f"[{TAG}] {len(failures)} check(s) FAILED: {failures}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
