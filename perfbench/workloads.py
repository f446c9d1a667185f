"""The benchmark workloads.

``BENCHMARK.json`` lists service-stream, sketch-attack and freq-sweep, which
between them reach every layer.  mean-round, the cold probe on a one-shot
round, reaches no layer the service does not, and is left out of the listed
set so that three workloads fit runs long enough to be steady; it can still
be run by hand.

Each workload is a closed loop driven by one client (the benchmark process):
the next operation starts only after the previous one returns, and any pool
the program starts has at most two workers.  A run draws the inputs of
unit ``i`` (a round, a sweep, or a whole service stream) from
``SeedSequence([seed, 1, i])`` and the set-up from lane 0, so a seed fixes
the work.

A workload exposes :meth:`setup` (everything before the first operation,
built from scratch on each call) and :meth:`run_unit`, which runs one unit
and reports each of its operations (the round, the sweep, or each window of
the stream) through ``record(seconds, users, ok, outputs)``.
``outputs`` are the operation's deterministic results; the benchmark digests
them in float hex.  ``ok`` is the operation's correctness check.
"""

from __future__ import annotations

import math
import os
import shutil
import time
from typing import Any, Callable, List

import numpy as np

Record = Callable[[float, int, bool, list], None]


def _rng(seed: int, *lane: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *lane]))


class MeanRound:
    """One DAP-CEMF* mean round: population, sharded collection, aggregate."""

    name = "mean-round"
    n_users = 100_000
    gamma = 0.25
    epsilon = 1.0
    #: |estimate - truth| band on [-1, 1] at 10^5 users (about 4 sigma)
    max_abs_error = 0.15
    gamma_band = (0.20, 0.30)
    modules = (
        "repro.attacks.bba",
        "repro.attacks.distributions",
        "repro.core.dap",
        "repro.datasets.synthetic",
        "repro.simulation.population",
    )

    def setup(self, seed: int) -> None:
        from repro.attacks.bba import BiasedByzantineAttack
        from repro.attacks.distributions import PAPER_POISON_RANGES
        from repro.core.dap import DAPConfig, DAPProtocol
        from repro.datasets.synthetic import uniform_dataset

        self.dataset = uniform_dataset(n_samples=100_000, rng=_rng(seed, 0))
        self.attack = BiasedByzantineAttack(PAPER_POISON_RANGES["[C/2,C]"])
        self.protocol = DAPProtocol(
            DAPConfig(epsilon=self.epsilon, estimator="cemf_star")
        )

    def run_unit(self, seed: int, unit: int, record: Record) -> None:
        from repro.simulation import population

        rng = _rng(seed, 1, unit)
        started = time.perf_counter()
        pop = population.build_population(
            self.dataset, self.n_users, self.gamma, rng=rng
        )
        accumulators = self.protocol.collect_sharded(
            pop.normal_values,
            self.attack,
            pop.n_byzantine,
            rng=rng,
            n_shards=2,
            n_workers=2,
        )
        result = self.protocol.aggregate_accumulated(accumulators)
        elapsed = time.perf_counter() - started
        ok = (
            result.poisoned_side == "right"
            and self.gamma_band[0] <= result.gamma_hat <= self.gamma_band[1]
            and abs(result.estimate - pop.true_mean) <= self.max_abs_error
        )
        record(
            elapsed,
            self.n_users,
            ok,
            [result.estimate, result.gamma_hat, result.poisoned_side],
        )


class ServiceStream:
    """The windowed service: warm probe, 2 collect workers, a checkpoint
    every window, and a BBA onset after a clean prefix.  One operation is
    one window; a unit is one stream of windows.

    Two thirds of the windows are clean, so the median window sits inside
    the clean-window mode instead of on the gap between the slow clean
    windows and the fast post-onset ones."""

    name = "service-stream"
    window_size = 5_000
    n_windows = 12
    attack_start = 8
    #: the detector must have flagged by this many windows after the onset
    detection_lag = 2
    modules = ("repro.service.runtime", "repro.service.spec")

    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir

    def _spec(self, seed: int, unit: int):
        from repro.service.spec import ServiceSpec

        stream_seed = int(np.random.SeedSequence([seed, 1, unit]).generate_state(1)[0])
        return ServiceSpec(
            name="perfbench",
            epsilon=1.0,
            dataset="Uniform",
            attack={"name": "bba", "poison_range": "[C/2,C]"},
            gamma=0.25,
            attack_start=self.attack_start,
            window_size=self.window_size,
            n_windows=self.n_windows,
            seed=stream_seed,
            collect_shards=2,
            collect_workers=2,
            checkpoint_every=1,
        )

    def _service(self, seed: int, unit: int):
        from repro.service.runtime import WindowedAggregationService

        directory = os.path.join(self.work_dir, f"stream-{unit}")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        return WindowedAggregationService(
            self._spec(seed, unit),
            checkpoint_path=os.path.join(directory, "checkpoint.json"),
        )

    def setup(self, seed: int) -> None:
        # the constructor builds the dataset pool and freezes the grids
        self._service(seed, 0)

    def run_unit(self, seed: int, unit: int, record: Record) -> None:
        service = self._service(seed, unit)
        last = [0.0]

        def progress(row) -> None:
            now = time.perf_counter()
            window = row.window
            if window < self.attack_start:
                ok = not row.flagged
            elif window >= self.attack_start + self.detection_lag:
                ok = row.flagged
            else:
                ok = True
            ok = ok and math.isfinite(row.estimate) and math.isfinite(row.gamma_hat)
            outputs = list(row.deterministic_view().values())
            record(now - last[0], self.window_size, ok, outputs)
            last[0] = time.perf_counter()

        last[0] = time.perf_counter()
        try:
            service.run(resume=False, progress=progress)
        finally:
            shutil.rmtree(os.path.dirname(service.checkpoint_path), ignore_errors=True)


class SketchAttack:
    """The count-sketch attack round with planted heavy hitters and targets.

    The geometry is ``benchmarks/bench_sketch.py``'s QUICK configuration with
    24 heavy-hitter candidates: the verification batch still runs to its
    10,000-iteration EM cap, at a few seconds per round.
    """

    name = "sketch-attack"
    epsilon = 4.0
    config = dict(
        n_categories=50_000,
        n_normal=100_000,
        n_byzantine=5_000,
        sketch_rows=4,
        sketch_width=1024,
        n_heavy_hitters=24,
        n_heavies=10,
        n_targets=3,
    )
    error_sigmas = 6.0
    modules = ("repro.core.sketch_frequency",)

    def setup(self, seed: int) -> None:
        from repro.core.sketch_frequency import SketchFrequencyDAP

        config = self.config
        n_heavies = config["n_heavies"]
        # heavies at 10, 20, ... linear from 0.035 down to 0.015; targets
        # are the cold categories 5, 15, ... (disjoint from the heavies)
        self.heavies = {
            10 * (index + 1): 0.035 - 0.020 * index / max(1, n_heavies - 1)
            for index in range(n_heavies)
        }
        self.targets = [10 * index + 5 for index in range(config["n_targets"])]
        self.dap = SketchFrequencyDAP(
            epsilon=self.epsilon,
            n_categories=config["n_categories"],
            sketch_rows=config["sketch_rows"],
            sketch_width=config["sketch_width"],
            n_heavy_hitters=config["n_heavy_hitters"],
        )
        n_normal = config["n_normal"]
        f2_other = sum(f * f for f in self.heavies.values())
        self.error_bound = self.error_sigmas * (
            self.dap.mechanism.frequency_stderr(n_normal)
            + self.dap.mechanism.collision_stderr(f2_other)
            + math.sqrt(0.03 * 0.97 / n_normal)
        )
        true_gamma = config["n_byzantine"] / (n_normal + config["n_byzantine"])
        self.gamma_band = (0.05 * true_gamma, 2.5 * true_gamma)

    def _population(self, rng: np.random.Generator) -> np.ndarray:
        config = self.config
        categories = rng.integers(0, config["n_categories"], config["n_normal"])
        total = sum(self.heavies.values())
        heavy = rng.random(config["n_normal"]) < total
        ids = np.array(list(self.heavies))
        weights = np.array(list(self.heavies.values())) / total
        categories[heavy] = rng.choice(ids, heavy.sum(), p=weights)
        return categories

    def run_unit(self, seed: int, unit: int, record: Record) -> None:
        config = self.config
        rng = _rng(seed, 1, unit)
        started = time.perf_counter()
        categories = self._population(rng)
        accumulator = self.dap.collect_sharded(
            categories,
            self.targets,
            config["n_byzantine"],
            rng=rng,
            n_shards=2,
            n_workers=2,
        )
        result = self.dap.estimate_from_counts(accumulator)
        elapsed = time.perf_counter() - started

        # the raw sketch decode of every planted heavy (candidate or not)
        # against its honest share of the reports
        scale = config["n_normal"] / (config["n_normal"] + config["n_byzantine"])
        decoded = result.query(np.array(list(self.heavies)))
        truth = np.array(list(self.heavies.values())) * scale
        ok = (
            sorted(result.poisoned_categories) == self.targets
            and float(np.max(np.abs(decoded - truth))) <= self.error_bound
            and self.gamma_band[0] < result.gamma_hat < self.gamma_band[1]
        )
        record(
            elapsed,
            config["n_normal"] + config["n_byzantine"],
            ok,
            [
                sorted(result.poisoned_categories),
                result.gamma_hat,
                [float(f) for f in result.frequencies],
            ],
        )


class FreqSweep:
    """The Figure 9 (c)(d) k-RR frequency sweep through the engine pool.

    QUICK scale's population and trial count on a smaller grid: both panels
    at epsilon 2, where DAP's probe is weakest.  A single trial there picks
    a wrong poison set in about 3% of draws (then losing to Ostrich); the
    cell MSE averages the trials, as the paper's figure does.
    """

    name = "freq-sweep"
    n_users = 20_000
    n_trials = 3
    epsilons = (2.0,)
    panels = {"c": (9,), "d": (2, 3, 4)}
    schemes = ("DAP-EMF*", "DAP-CEMF*", "Ostrich")
    modules = ("repro.experiments",)

    def setup(self, seed: int) -> None:
        from repro.experiments import ExperimentScale

        self.scale = ExperimentScale(
            n_users=self.n_users, n_trials=self.n_trials, gamma=0.25
        )

    def run_unit(self, seed: int, unit: int, record: Record) -> None:
        from repro.experiments import fig9_freq

        started = time.perf_counter()
        records = fig9_freq.run_fig9_frequency(
            self.scale,
            epsilons=self.epsilons,
            panels=self.panels,
            schemes=self.schemes,
            rng=_rng(seed, 1, unit),
            n_workers=2,
        )
        elapsed = time.perf_counter() - started

        def mse(panel: str, epsilon: float) -> dict:
            return {
                r.scheme: r.mse
                for r in records
                if r.panel == panel and r.epsilon == epsilon
            }

        # the claims benchmarks/test_fig9_frequency.py asserts at these
        # budgets: DAP beats Ostrich on the single-category attack (panel c)
        # and on the multi-category attack (panel d)
        ok = all(
            mse("c", e)["DAP-EMF*"] < mse("c", e)["Ostrich"]
            and min(mse("d", e)["DAP-EMF*"], mse("d", e)["DAP-CEMF*"])
            < mse("d", e)["Ostrich"]
            for e in self.epsilons
        )
        n_points = len(self.epsilons) * len(self.panels) * self.n_trials
        record(
            elapsed,
            self.n_users * n_points,
            ok,
            [[r.panel, r.epsilon, r.scheme, r.mse] for r in records],
        )


def make(name: str, work_dir: str) -> Any:
    if name == ServiceStream.name:
        return ServiceStream(work_dir)
    for cls in (MeanRound, SketchAttack, FreqSweep):
        if cls.name == name:
            return cls()
    raise KeyError(name)


NAMES: List[str] = [
    MeanRound.name,
    ServiceStream.name,
    SketchAttack.name,
    FreqSweep.name,
]
