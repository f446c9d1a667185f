"""Shared plumbing for the ``bench_*.py`` scripts.

Every script that measures memory runs each configuration in a fresh child
process: itself again, with ``--single ARGS``.  The child caps its address
space (``--mem-limit-gb``), runs one measurement and prints the report as
JSON; a ``MemoryError`` under the cap exits 3.  The parent collects the
rows, gates them and writes the payload.  This module owns that round trip,
the peak-RSS probe and the payload writer, plus :func:`dap_round`, the
DAP-CEMF* round that ``bench_scale.py``, ``bench_shard.py`` and
``bench_backend.py`` measure in different modes.

The scripts import it as ``harness``: ``python benchmarks/bench_x.py`` puts
``benchmarks/`` on ``sys.path``.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time

#: exit status of a child whose measurement hit the address-space cap
MEMORY_ERROR_EXIT = 3

EPSILON = 1.0
GAMMA = 0.25
SEED = 7
CHUNK_SIZE = 65_536
#: dataset records are sampled with replacement, so the dataset itself stays
#: small no matter the population size
DATASET_SAMPLES = 100_000
#: the ``config`` block every DAP-round payload records
DAP_ROUND_CONFIG = {
    "epsilon": EPSILON,
    "gamma": GAMMA,
    "estimator": "cemf_star",
    "attack": "bba [C/2,C]",
}


def peak_rss_mb() -> float:
    """Peak resident set size in MiB: this process or its largest reaped child.

    Linux reports ``ru_maxrss`` in KiB.  A sharded round with several
    workers peaks in its pool processes; with one worker the pool runs in
    process and the children term is zero.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def add_child_options(parser, out: str, timeout_s: float = 1800.0, **single) -> None:
    """Add the child-process flags: ``--mem-limit-gb``, ``--timeout-s``,
    ``--out`` and ``--single`` (``single`` holds its argparse keywords)."""
    parser.add_argument("--mem-limit-gb", type=float, default=4.0)
    parser.add_argument("--timeout-s", type=float, default=timeout_s)
    parser.add_argument("--out", default=out)
    parser.add_argument("--single", default=None, **single)


def child_command(script: str, single, mem_limit_gb: float, *flags: str) -> list:
    """The command that re-runs ``script`` as a child on one configuration."""
    return [
        sys.executable,
        script,
        "--single",
        *(str(arg) for arg in single),
        "--mem-limit-gb",
        str(mem_limit_gb),
        *flags,
    ]


def child_main(measure, mem_limit_gb: float) -> int:
    """Child entry: cap the address space, run ``measure()``, print its JSON."""
    if mem_limit_gb > 0:
        limit = int(mem_limit_gb * 1024**3)
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    try:
        report = measure()
    except MemoryError:
        print("MemoryError: exceeded the address-space cap", file=sys.stderr)
        return MEMORY_ERROR_EXIT
    print(json.dumps(report))
    return 0


def run_child(command: list, row: dict, timeout_s: float) -> dict:
    """Run a child command and return its JSON report.

    A failed child yields ``{**row, "ok": False, "error": ...}``: the
    timeout, or the last line of its stderr (a ``MemoryError`` under the
    cap is the expected failure of the in-memory path at large scales).
    """
    start = time.perf_counter()
    try:
        child = subprocess.run(
            command, capture_output=True, text=True, timeout=timeout_s
        )
    except subprocess.TimeoutExpired:
        return {**row, "ok": False, "error": f"timed out after {timeout_s:g}s"}
    if child.returncode != 0:
        tail = (child.stderr or "").strip().splitlines()
        return {
            **row,
            "ok": False,
            "error": tail[-1] if tail else f"exit code {child.returncode}",
            "wall_time_s": round(time.perf_counter() - start, 3),
        }
    return json.loads(child.stdout)


def _rss_status(report: dict) -> str:
    return f"{report['wall_time_s']:.1f}s, {report['peak_rss_mb']:.0f} MiB"


def measure(
    tag: str, label: str, command: list, row: dict, timeout_s: float, status=_rss_status
) -> dict:
    """Run one child configuration, printing its label and outcome."""
    print(f"[{tag}] {label} ...", flush=True)
    report = run_child(command, row, timeout_s)
    outcome = status(report) if report.get("ok") else f"FAILED ({report.get('error')})"
    print(f"[{tag}]   -> {outcome}", flush=True)
    return report


def check(tag: str, failures: list, condition: bool, label: str) -> None:
    """Print a PASS/FAIL line for one gate and add ``label`` to ``failures``
    when it fails."""
    print(f"[{tag}] {'PASS' if condition else 'FAIL'}: {label}", flush=True)
    if not condition:
        failures.append(label)


def write_json(tag: str, path: str, payload: dict, **dump_options) -> None:
    """Write a payload as JSON (``indent=2`` unless given) and say so."""
    dump_options.setdefault("indent", 2)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, **dump_options)
        handle.write("\n")
    print(f"[{tag}] wrote {path}", flush=True)


def dap_round(mode: str, n_users: int, backend=None) -> dict:
    """One DAP-CEMF* round under BBA [C/2,C], timed; the report as a dict.

    ``mode`` picks the path:

    * ``in-memory`` — ``build_population`` + ``DAPProtocol.run``;
    * ``streaming`` — ``stream_population`` + ``DAPProtocol.run_stream``;
    * ``sharded-W`` — ``build_population`` + ``run_sharded`` on W shards
      and W workers (the row records ``collect_workers``);
    * ``collect`` / ``full`` — ``collect_sharded`` alone / ``run_sharded``
      on one shard and one worker, with the population drawn before the
      clock starts.

    With ``backend`` set the round runs under that array backend and the
    row carries the backend name and its per-stage ``profile``.
    """
    from repro.attacks.bba import BiasedByzantineAttack
    from repro.attacks.distributions import PAPER_POISON_RANGES
    from repro.backends import use_backend
    from repro.core.dap import DAPConfig, DAPProtocol
    from repro.datasets.synthetic import uniform_dataset
    from repro.simulation.population import build_population, stream_population
    from repro.utils import profiling

    dataset = uniform_dataset(n_samples=DATASET_SAMPLES, rng=SEED)
    attack = BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"])
    protocol = DAPProtocol(DAPConfig(epsilon=EPSILON, estimator="cemf_star"))
    workers = None
    population = None
    if mode in ("collect", "full"):
        shards = 1
        population = build_population(dataset, n_users, GAMMA, rng=SEED)
    elif mode.startswith("sharded-"):
        shards = workers = int(mode.rsplit("-", 1)[1])
    elif mode not in ("in-memory", "streaming"):
        raise ValueError(f"unknown mode {mode!r}")

    before = profiling.snapshot()
    start = time.perf_counter()
    with use_backend(backend):
        if mode == "streaming":
            stream = stream_population(
                dataset, n_users, GAMMA, rng=SEED, chunk_size=CHUNK_SIZE
            )
            result = protocol.run_stream(
                stream.chunks(), stream.n_normal, attack, stream.n_byzantine, rng=SEED
            )
            truth = stream.true_mean
        else:
            if population is None:
                population = build_population(dataset, n_users, GAMMA, rng=SEED)
            args = (population.normal_values, attack, population.n_byzantine)
            if mode == "in-memory":
                result = protocol.run(*args, rng=SEED)
            elif mode == "collect":
                accumulators = protocol.collect_sharded(
                    *args, rng=SEED, n_shards=shards, n_workers=shards
                )
            else:
                result = protocol.run_sharded(
                    *args, rng=SEED, n_shards=shards, n_workers=shards
                )
            truth = population.true_mean
    elapsed = time.perf_counter() - start
    profile = profiling.delta_since(before)

    report = {"mode": mode}
    if backend is not None:
        report["backend"] = backend
    report.update(
        n_users=n_users,
        ok=True,
        wall_time_s=round(elapsed, 3),
        peak_rss_mb=round(peak_rss_mb(), 1),
    )
    if backend is not None:
        report["profile"] = {
            name: round(seconds, 3) for name, seconds in sorted(profile.items())
        }
    if mode == "collect":
        report["n_reports"] = int(sum(a.n_reports for a in accumulators))
    else:
        report.update(
            estimate=result.estimate,
            true_mean=truth,
            abs_error=abs(result.estimate - truth),
            gamma_hat=result.gamma_hat,
        )
    if workers is not None:
        report["collect_workers"] = workers
    return report
