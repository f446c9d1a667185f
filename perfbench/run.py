"""The repository benchmark: one workload per invocation, metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload service-stream --seed 1 --seconds 36 --trace 0

Workloads (see ``perfbench/workloads.py``): ``service-stream``,
``sketch-attack`` and ``freq-sweep``, the three that ``BENCHMARK.json``
lists, and ``mean-round``, which can be run by hand.  Every process runs
one BLAS thread: the pools start two worker processes, and a BLAS thread
pool in each oversubscribes a two-CPU host (on a shared 2-CPU x86_64 VM the
same freq-sweep operation took 3.3 to 6.0 s from run to run with the default
threads, 3.5 to 4.4 s with one).  ``setup_s`` is the median time of a
fresh interpreter importing the workload's modules plus the median time of
building the workload, each taken five times.
Then operations run in a closed loop for ``--seconds`` seconds, and every
operation's outputs are checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: each unit of operations runs twice over the same
inputs, once untraced and once traced (alternating which goes first), the
traced run with spans around each layer's public entry points
(``perfbench/tracer.py``).  Per-layer times and counts are per traced
operation.  On ``freq-sweep`` the engine workers' layer times are summed
over both workers, so they can exceed the operation's wall time.
``unattributed.s`` is the traced wall time that no top-level span covers,
and ``trace.overhead_frac`` compares the traced to the untraced wall time
of the same operations.

The line before the last is a report: the host, the per-operation
latencies, the tail percentile (the highest with at least ten operations
beyond it, given from 20 operations on) and a float-hex digest of the first
operations' deterministic outputs.  The last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every operation passed its check, and 2 when there is no
``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# before numpy loads, so this process and every worker it starts inherit it
os.environ.update({name: "1" for name in BLAS_THREAD_VARS})

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: an operation slower than this counts as failed (a timeout)
OP_TIMEOUT_S = 60.0
#: operations whose outputs enter the digest (the whole first stream for
#: the service, whose operations are windows)
DIGEST_OPS = {"service-stream": 12}
DEFAULT_DIGEST_OPS = 3

PER_LAYER_UNITS = {
    "population.s": "s",
    "collect.s": "s",
    "collect.self_s": "s",
    "collect.reports": "count",
    "collect.reports_per_s": "1/s",
    "resilience.pool_s": "s",
    "resilience.pool_tasks": "count",
    "resilience.retries": "count",
    "resilience.serial_degradations": "count",
    "accumulators.merge_s": "s",
    "accumulators.merges": "count",
    "accumulators.state_bytes": "B",
    "probe.s": "s",
    "probe.self_s": "s",
    "ems.s": "s",
    "ems.calls": "count",
    "ems.iters": "count",
    "ems.cap_hits": "count",
    "aggregate.s": "s",
    "sketch.decode_s": "s",
    "checkpoint.write_s": "s",
    "checkpoint.writes": "count",
    "checkpoint.bytes": "B",
    "engine.s": "s",
    "engine.units": "count",
    "unattributed.s": "s",
    "trace.overhead_frac": "1",
}


def _hex(value):
    """Deterministic outputs with every float written in float hex."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_hex(item) for item in value]
    return value


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _host() -> dict:
    try:
        config = np.show_config(mode="dicts")
        entry = config["Build Dependencies"]["blas"]
        blas = {"name": entry.get("name"), "version": entry.get("version")}
    except Exception as error:  # older numpy: no dict mode
        blas = {"error": str(error)}
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    source = hashlib.sha256()
    for directory, _dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                source.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    source.update(handle.read())
    threads = {
        key: os.environ.get(key)
        for key in (*BLAS_THREAD_VARS, "NUMEXPR_NUM_THREADS")
    }
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas,
        "thread_env": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": rev,
        "source_sha256": source.hexdigest(),
    }


def _import_seconds(modules) -> float:
    """Wall time of a fresh interpreter importing the workload's modules."""
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); "
        + "; ".join(f"import {module}" for module in modules)
    )
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, timeout=120)
    return time.perf_counter() - started


def tail_percentile(latencies) -> dict | None:
    """The highest whole percentile with at least ten operations beyond it."""
    n = len(latencies)
    if n < 20:
        return None
    ordered = sorted(latencies)
    percentile = math.floor(100 * (n - 10) / n)
    index = max(0, math.ceil(percentile / 100 * n) - 1)
    return {"percentile": percentile, "value_s": ordered[index], "n_ops": n}


class Run:
    """Operation bookkeeping for one measured loop."""

    def __init__(self, digest_ops: int) -> None:
        self.latencies: list = []
        self.users = 0
        self.attempted = 0
        self.failed = 0
        self.outputs: list = []
        self.digest_ops = digest_ops
        self.errors: list = []

    def record(self, seconds: float, users: int, ok: bool, outputs: list) -> None:
        self.attempted += 1
        if not ok or seconds > OP_TIMEOUT_S:
            self.failed += 1
        self.latencies.append(seconds)
        self.users += users
        if len(self.outputs) < self.digest_ops:
            self.outputs.append(_hex(outputs))

    def unit(self, workload, seed: int, unit: int) -> None:
        try:
            workload.run_unit(seed, unit, self.record)
        except Exception as error:  # an operation that raised
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"unit {unit}: {type(error).__name__}: {error}")

    def digest(self) -> str:
        text = json.dumps(self.outputs, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def measure(workload, seed: int, seconds: float, digest_ops: int) -> Run:
    """Whole units in a closed loop until ``seconds`` have passed."""
    run = Run(digest_ops)
    deadline = time.perf_counter() + seconds
    unit = 0
    while time.perf_counter() < deadline:
        run.unit(workload, seed, unit)
        unit += 1
    return run


def measure_traced(workload, seed: int, seconds: float, tracer) -> tuple:
    """Each unit twice over the same inputs, untraced and traced, alternating
    which runs first."""
    from tracer import install

    install(tracer)
    plain, traced = Run(0), Run(0)
    states: list = []
    deadline = time.perf_counter() + seconds
    unit = 0
    while time.perf_counter() < deadline:
        for tracing in (unit % 2 == 1, unit % 2 == 0):
            if not tracing:
                plain.unit(workload, seed, unit)
                continue
            tracer.enabled = True
            try:
                traced.unit(workload, seed, unit)
            finally:
                tracer.enabled = False
            tracer.collect_workers()
            states.extend(tracer.pending_states)
            tracer.pending_states.clear()
        unit += 1
    tracer.unpatch()
    return plain, traced, states


def layer_metrics(
    tracer, plain: Run, traced: Run, states: list, resilience: dict
) -> dict:
    n = max(1, traced.attempted)
    total, self_time, calls, counts = (
        tracer.total,
        tracer.self_time,
        tracer.calls,
        tracer.counts,
    )
    wall = sum(traced.latencies)
    state_bytes = [
        sum(len(json.dumps(acc.state_dict())) for acc in accumulators)
        for accumulators in states
    ]
    values = {
        "population.s": total["population"] / n,
        "collect.s": total["collect"] / n,
        "collect.self_s": self_time["collect"] / n,
        "collect.reports": counts["collect.reports"] / n,
        "collect.reports_per_s": (
            counts["collect.reports"] / total["collect"] if total["collect"] else 0.0
        ),
        "resilience.pool_s": total["resilience.pool"] / n,
        "resilience.pool_tasks": counts["resilience.pool_tasks"] / n,
        "resilience.retries": resilience.get("retries", 0) / n,
        "resilience.serial_degradations": (
            resilience.get("serial_degradations", 0) / n
        ),
        "accumulators.merge_s": total["accumulators.merge"] / n,
        "accumulators.merges": calls["accumulators.merge"] / n,
        "accumulators.state_bytes": (
            statistics.median(state_bytes) if state_bytes else 0.0
        ),
        "probe.s": total["probe"] / n,
        "probe.self_s": self_time["probe"] / n,
        "ems.s": total["ems"] / n,
        "ems.calls": calls["ems"] / n,
        "ems.iters": counts["ems.iters"] / n,
        "ems.cap_hits": counts["ems.cap_hits"] / n,
        "aggregate.s": self_time["aggregate"] / n,
        "sketch.decode_s": total["sketch.decode"] / n,
        "checkpoint.write_s": total["checkpoint.write"] / n,
        "checkpoint.writes": calls["checkpoint.write"] / n,
        "checkpoint.bytes": (
            counts["checkpoint.bytes"] / calls["checkpoint.write"]
            if calls["checkpoint.write"]
            else 0.0
        ),
        "engine.s": total["engine"] / n,
        "engine.units": counts["engine.units"] / n,
        "unattributed.s": (wall - tracer.top_level) / n,
        "trace.overhead_frac": (
            wall / sum(plain.latencies) - 1.0 if plain.latencies else 0.0
        ),
    }
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.NAMES:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {workloads.NAMES}",
            file=sys.stderr,
        )
        return 2

    work_dir = os.path.join(ROOT, ".bench_build", "perfbench", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        workload = workloads.make(args.workload, work_dir)

        imports = [_import_seconds(workload.modules) for _ in range(SETUP_REPEATS)]
        for module in workload.modules:
            importlib.import_module(module)
        constructs = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            workload.setup(args.seed)
            constructs.append(time.perf_counter() - started)
        setup_s = statistics.median(imports) + statistics.median(constructs)

        digest_ops = DIGEST_OPS.get(args.workload, DEFAULT_DIGEST_OPS)
        if args.trace:
            from repro.resilience import stats as resilience_stats
            from tracer import Tracer

            tracer = Tracer(work_dir)
            before = resilience_stats.snapshot()
            plain, run, states = measure_traced(
                workload, args.seed, args.seconds, tracer
            )
            metrics = layer_metrics(
                tracer, plain, run, states, resilience_stats.delta_since(before)
            )
            runs = (plain, run)
        else:
            run = measure(workload, args.seed, args.seconds, digest_ops)
            wall = sum(run.latencies)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "latency_s_p50": {
                    "value": statistics.median(run.latencies) if run.latencies else 0.0,
                    "unit": "s",
                },
                "users_per_s": {
                    "value": run.users / wall if wall else 0.0,
                    "unit": "1/s",
                },
                "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MiB"},
            }
            runs = (run,)
    finally:
        # the program shuts its pools down without waiting; wait for the
        # workers here so none outlives the benchmark
        for child in multiprocessing.active_children():
            child.join(timeout=30)
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": _host(),
        "setup": {"import_s": imports, "construct_s": constructs},
        "latencies_s": run.latencies,
        "tail": tail_percentile(run.latencies),
        "errors": [e for r in runs for e in r.errors],
    }
    if not args.trace:
        report["digest"] = {"ops": len(run.outputs), "sha256": run.digest()}
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": max(1, attempted),
                "failed": failed if attempted else 1,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 and attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
