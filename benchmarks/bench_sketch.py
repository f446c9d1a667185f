"""Sketch-route benchmark: high-cardinality frequency at 10^6 categories.

The point of the count-sketch route is a regime the dense frequency oracles
cannot enter at all: 10^6 categories x 10^6 users under a 4 GiB
address-space cap (the dense probe's k x k transform alone would need
~8 TiB).  Each measurement runs in a fresh subprocess under the cap, and
the parent *gates* the results — this script exits nonzero when any gate
fails, so CI can run it directly:

* ``guard``  — the dense routes (FrequencyDAP, OUE, OLH) must *refuse* the
  configured cardinality instead of attempting the allocation;
* ``merge``  — sharded collection folded over 1/2/4 shards must produce
  bit-identical sketch counts;
* ``clean``  — an attack-free round must finish inside the time budget with
  every planted heavy hitter decoded within the analytic error bound
  (privacy noise + hash collisions + sampling, 6 sigma), and must flag
  nothing;
* ``attack`` — a round with 5% Byzantine users targeting planted cold
  categories must finish inside the time budget, flag exactly the targets,
  and estimate the poison fraction within a factor-of-two band.

Usage::

    PYTHONPATH=src python benchmarks/bench_sketch.py --out BENCH_sketch.json
    PYTHONPATH=src python benchmarks/bench_sketch.py --quick
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time

import harness

TAG = "bench_sketch"
MODES = ("guard", "merge", "clean", "attack")
EPSILON = 4.0
SEED = 7
TIME_BUDGET_S = 30.0
ERROR_SIGMAS = 6.0

#: full configuration: the regime the dense path cannot run
FULL = dict(
    n_categories=1_000_000,
    n_normal=1_000_000,
    n_byzantine=50_000,
    sketch_rows=4,
    sketch_width=2048,
    n_heavy_hitters=64,
    n_heavies=20,
    n_targets=5,
)

#: CI smoke: same pipeline, ~seconds instead of ~half a minute
QUICK = dict(
    n_categories=50_000,
    n_normal=100_000,
    n_byzantine=5_000,
    sketch_rows=4,
    sketch_width=1024,
    n_heavy_hitters=32,
    n_heavies=10,
    n_targets=3,
)


def _planted(config: dict) -> tuple[dict, list]:
    """Planted heavy-hitter frequencies and the attack's cold targets.

    Heavies are categories ``10, 20, 30, ...`` with frequencies linear from
    0.035 down to 0.015 — the floor sits well above the extreme order
    statistic of the decode noise over the whole domain, so every planted
    heavy must make the candidate set.  Targets are cold categories
    ``5, 15, 25, ...`` disjoint from the heavies.
    """
    n_heavies = config["n_heavies"]
    heavies = {
        10 * (index + 1): 0.035 - 0.020 * index / max(1, n_heavies - 1)
        for index in range(n_heavies)
    }
    targets = [10 * index + 5 for index in range(config["n_targets"])]
    return heavies, targets


def _population(config: dict, rng) -> "np.ndarray":
    import numpy as np

    heavies, _ = _planted(config)
    categories = rng.integers(0, config["n_categories"], config["n_normal"])
    total = sum(heavies.values())
    heavy = rng.random(config["n_normal"]) < total
    ids = np.array(list(heavies))
    weights = np.array(list(heavies.values())) / total
    categories[heavy] = rng.choice(ids, heavy.sum(), p=weights)
    return categories


def _dap(config: dict):
    from repro.core.sketch_frequency import SketchFrequencyDAP

    return SketchFrequencyDAP(
        epsilon=EPSILON,
        n_categories=config["n_categories"],
        sketch_rows=config["sketch_rows"],
        sketch_width=config["sketch_width"],
        n_heavy_hitters=config["n_heavy_hitters"],
    )


def _error_bound(config: dict, mechanism, heavies: dict) -> float:
    """6-sigma analytic decode error: privacy noise + collisions + sampling."""
    n_reports = config["n_normal"]
    f2_other = sum(f * f for f in heavies.values())
    noise = mechanism.frequency_stderr(n_reports)
    collision = mechanism.collision_stderr(f2_other)
    sampling = math.sqrt(0.03 * 0.97 / n_reports)
    return ERROR_SIGMAS * (noise + collision + sampling)


# ----------------------------------------------------------------------
# child modes (one fresh process per measurement, under the rlimit cap)
# ----------------------------------------------------------------------
def run_guard(config: dict) -> dict:
    """The dense routes must refuse the full-scale cardinality outright.

    Always checked at the FULL configuration's 10^6 categories (the guards
    are O(1) constructor checks, so this costs nothing in quick mode, where
    the measurement cardinality itself sits under the OUE/OLH limits).
    """
    from repro.core.frequency import FrequencyDAP
    from repro.ldp.olh import OptimizedLocalHashing
    from repro.ldp.oue import OptimizedUnaryEncoding

    cardinality = max(config["n_categories"], FULL["n_categories"])
    refused = {}
    for name, build in (
        ("frequency_dap", lambda: FrequencyDAP(EPSILON, cardinality)),
        ("oue", lambda: OptimizedUnaryEncoding(EPSILON, cardinality)),
        ("olh", lambda: OptimizedLocalHashing(EPSILON, cardinality)),
    ):
        try:
            build()
            refused[name] = False
        except ValueError as error:
            refused[name] = "count-sketch" in str(error)
    return {"mode": "guard", "ok": all(refused.values()), "refused": refused}


def run_merge(config: dict) -> dict:
    """Sharded collection must be bit-identical at any shard count."""
    import numpy as np

    _, targets = _planted(config)
    dap = _dap(config)
    digests = []
    for n_shards in (1, 2, 4):
        accumulator = dap.collect_sharded(
            _population(config, np.random.default_rng(SEED)),
            targets,
            config["n_byzantine"],
            rng=np.random.default_rng(SEED + 1),
            n_shards=n_shards,
            n_workers=1,
        )
        digests.append(hashlib.sha256(accumulator.counts.tobytes()).hexdigest())
    return {
        "mode": "merge",
        "ok": len(set(digests)) == 1,
        "shards": [1, 2, 4],
        "counts_sha256": digests[0][:16],
        "peak_rss_mb": round(harness.peak_rss_mb(), 1),
    }


def run_round(config: dict, attacked: bool) -> dict:
    """One full collection + estimation round, timed and gated."""
    import numpy as np

    from repro.utils import profiling

    heavies, targets = _planted(config)
    dap = _dap(config)
    rng = np.random.default_rng(SEED)
    categories = _population(config, rng)

    before = profiling.snapshot()
    start = time.perf_counter()
    accumulator = dap.collect_sharded(
        categories,
        targets if attacked else [],
        config["n_byzantine"] if attacked else 0,
        rng=rng,
        n_shards=2,
        n_workers=1,
    )
    result = dap.estimate_from_counts(accumulator)
    elapsed = time.perf_counter() - start
    profile = profiling.delta_since(before)

    estimates = {
        int(c): float(f) for c, f in zip(result.heavy_hitters, result.frequencies)
    }
    decoded = {
        int(c): float(d) for c, d in zip(result.heavy_hitters, result.decoded)
    }
    scale = config["n_normal"] / (config["n_normal"] + config["n_byzantine"])
    honest = {
        category: frequency * (scale if attacked else 1.0)
        for category, frequency in heavies.items()
    }
    missing = [c for c in honest if c not in decoded]
    hh_error = max(
        (abs(decoded[c] - truth) for c, truth in honest.items() if c in decoded),
        default=float("inf"),
    )
    report = {
        "mode": "attack" if attacked else "clean",
        "ok": True,
        "wall_time_s": round(elapsed, 3),
        "peak_rss_mb": round(harness.peak_rss_mb(), 1),
        "n_reports": int(accumulator.n_reports),
        "poisoned_categories": result.poisoned_categories,
        "gamma_hat": round(result.gamma_hat, 5),
        "heavy_hitter_max_abs_error": round(hh_error, 6),
        "heavy_hitter_error_bound": round(
            _error_bound(config, dap.mechanism, heavies), 6
        ),
        "missing_heavies": missing,
        "profile": {
            name: round(seconds, 3) for name, seconds in sorted(profile.items())
        },
    }
    if attacked:
        report["targets"] = targets
        report["log_likelihood_gains"] = [
            round(gain, 2) for gain in result.log_likelihood_gains
        ]
        report["estimates_at_targets"] = {
            str(c): round(estimates.get(c, float("nan")), 5) for c in targets
        }
    return report


def run_single(mode: str, config: dict) -> dict:
    """Child entry point: one measurement."""
    if mode == "guard":
        return run_guard(config)
    if mode == "merge":
        return run_merge(config)
    return run_round(config, attacked=mode == "attack")


# ----------------------------------------------------------------------
# parent: orchestration and gating
# ----------------------------------------------------------------------
def _status(report: dict) -> str:
    return f"ok ({report['wall_time_s']:.1f}s)" if "wall_time_s" in report else "ok"


def gate(results: dict, config: dict) -> list:
    """Evaluate the hard gates; return the list of violations."""
    _, targets = _planted(config)
    violations = []

    guard = results["guard"]
    if not guard.get("ok"):
        violations.append(f"dense routes did not all refuse: {guard}")

    merge = results["merge"]
    if not merge.get("ok"):
        violations.append(f"sharded sketch counts not bit-identical: {merge}")

    for mode in ("clean", "attack"):
        row = results[mode]
        if not row.get("ok"):
            violations.append(f"{mode} round failed: {row.get('error')}")
            continue
        if row["wall_time_s"] > TIME_BUDGET_S:
            violations.append(
                f"{mode} round took {row['wall_time_s']:.1f}s "
                f"(budget {TIME_BUDGET_S:g}s)"
            )
        if row["missing_heavies"]:
            violations.append(
                f"{mode} round dropped planted heavies {row['missing_heavies']} "
                f"from the candidate set"
            )
        if row["heavy_hitter_max_abs_error"] > row["heavy_hitter_error_bound"]:
            violations.append(
                f"{mode} heavy-hitter error {row['heavy_hitter_max_abs_error']} "
                f"exceeds the analytic bound {row['heavy_hitter_error_bound']}"
            )

    clean = results["clean"]
    if clean.get("ok") and clean["poisoned_categories"]:
        violations.append(
            f"clean round flagged {clean['poisoned_categories']} as poisoned"
        )

    attack = results["attack"]
    if attack.get("ok"):
        if sorted(attack["poisoned_categories"]) != sorted(targets):
            violations.append(
                f"attack round flagged {attack['poisoned_categories']}, "
                f"expected exactly {sorted(targets)}"
            )
        # sanity band only: the split between a flagged category's own column
        # and its poison column is identified only up to the flatness of the
        # candidate/poison likelihood ridge (see the sketch_frequency module
        # docstring), so gamma_hat is approximate by design — the sharp gates
        # are exact flag recovery and clean-round silence
        true_gamma = config["n_byzantine"] / (
            config["n_normal"] + config["n_byzantine"]
        )
        if not 0.05 * true_gamma < attack["gamma_hat"] < 2.5 * true_gamma:
            violations.append(
                f"gamma_hat {attack['gamma_hat']} outside the sanity band "
                f"[{0.05 * true_gamma:.4f}, {2.5 * true_gamma:.4f}]"
            )
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke configuration")
    harness.add_child_options(
        parser,
        "BENCH_sketch.json",
        timeout_s=600.0,
        choices=list(MODES),
        help="child entry point: one measurement, JSON on stdout",
    )
    args = parser.parse_args(argv)
    config = QUICK if args.quick else FULL

    if args.single is not None:
        return harness.child_main(
            lambda: run_single(args.single, config), args.mem_limit_gb
        )

    results = {
        mode: harness.measure(
            TAG,
            mode,
            harness.child_command(
                __file__,
                (mode,),
                args.mem_limit_gb,
                *(["--quick"] if args.quick else []),
            ),
            {"mode": mode},
            args.timeout_s,
            status=_status,
        )
        for mode in MODES
    }

    violations = gate(results, config)
    payload = {
        "benchmark": "sketch-backed high-cardinality frequency (count-sketch)",
        "config": {
            **config,
            "epsilon": EPSILON,
            "seed": SEED,
            "mem_limit_gb": args.mem_limit_gb,
            "time_budget_s": TIME_BUDGET_S,
            "error_sigmas": ERROR_SIGMAS,
            "quick": args.quick,
            "cpu_count": os.cpu_count(),
        },
        "notes": (
            "Every row runs in a fresh subprocess under the address-space "
            "cap. 'guard' asserts the dense oracles refuse the cardinality; "
            "'merge' asserts 1/2/4-shard sketch counts are bit-identical; "
            "'clean'/'attack' time the full sharded-collect + estimate round "
            "and check heavy-hitter decode error against the analytic "
            "privacy+collision+sampling bound and exact recovery of the "
            "planted poison targets."
        ),
        "gates_passed": not violations,
        "violations": violations,
        "results": list(results.values()),
    }
    harness.write_json(TAG, args.out, payload)
    for violation in violations:
        print(f"[{TAG}] GATE VIOLATION: {violation}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
