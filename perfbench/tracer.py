"""Layer spans recorded from outside the program.

The tracer wraps the public entry points of each layer (module functions and
class methods of ``repro``) with a span recorder, so the program itself is
never edited: every reference to a wrapped function held by a loaded
``repro`` module is swapped for the wrapper, and methods are swapped on their
class.  Spans nest; a layer's time counts only its outermost span (a batched
EM that calls the scalar EM is one solve, not two), and a span's self time is
its duration minus the time covered by its child spans.

Spans are only recorded while :attr:`Tracer.enabled` is set (the benchmark
turns it on around the traced operations).  Engine pool workers are forked
from the traced process, so they inherit the wrappers; each worker ships its
per-unit layer totals back through a small JSON-lines file in the benchmark's
work directory, which :meth:`Tracer.collect_workers` folds in.
"""

from __future__ import annotations

import functools
import glob
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

class Tracer:
    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir
        self.enabled = False
        self.parent_pid = os.getpid()
        self._patched: List[tuple] = []
        #: per layer: outermost span time, self time, outermost span count
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: layer-specific counters (reports, EM iterations, bytes, ...)
        self.counts: Dict[str, float] = defaultdict(float)
        #: wall time covered by spans that have no enclosing span
        self.top_level = 0.0
        self.stack: List[list] = []
        #: accumulator lists produced by the traced operation, sized later
        self.pending_states: List[Any] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def span(
        self,
        layer: str,
        function: Callable,
        on_result: Callable[[tuple, dict, Any], None] | None = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            outermost = all(frame[0] != layer for frame in tracer.stack)
            frame = [layer, 0.0]  # layer, child time
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.stack.pop()
                tracer.self_time[layer] += elapsed - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += elapsed
                else:
                    tracer.top_level += elapsed
                if outermost:
                    tracer.total[layer] += elapsed
                    tracer.calls[layer] += 1
            if outermost and on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def patch_function(
        self, module_name: str, name: str, layer: str, on_result=None
    ) -> None:
        """Wrap ``module.name`` and every ``repro`` module's reference to it."""
        original = getattr(sys.modules[module_name], name)
        wrapper = self.span(layer, original, on_result)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def patch_method(self, cls: type, name: str, layer: str, on_result=None) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, self.span(layer, original, on_result))
        self._patched.append((cls, name, original))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # engine pool workers
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "total": dict(self.total),
            "self_time": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def ship_from_worker(self, before: dict) -> None:
        """Append this worker's layer totals since ``before`` to its file."""
        now = self.snapshot()
        delta = {
            key: {
                name: value - before[key].get(name, 0)
                for name, value in now[key].items()
                if value != before[key].get(name, 0)
            }
            for key in now
        }
        path = os.path.join(self.work_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(delta) + "\n")

    def collect_workers(self) -> None:
        """Fold every shipped worker delta into this process's totals."""
        for path in glob.glob(os.path.join(self.work_dir, "worker-*.jsonl")):
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
            os.remove(path)
            for line in lines:
                delta = json.loads(line)
                for key in ("total", "self_time", "calls", "counts"):
                    target = getattr(self, key)
                    for name, value in delta[key].items():
                        target[name] += value


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (modules must be importable)."""
    import numpy as np

    from repro.collect.accumulators import GroupAccumulator, SketchAccumulator
    from repro.core.dap import DAPProtocol
    from repro.core.frequency import FrequencyDAP
    from repro.core.sketch_frequency import SketchFrequencyDAP
    from repro.engine.spec import ExperimentSpec
    from repro.ldp import ems
    from repro.ldp.count_sketch import CountSketch
    from repro.resilience.pool import ResilientPool
    from repro.service.checkpoint import CheckpointChain
    import repro.engine.executor  # noqa: F401  (loaded so its references are patched)
    import repro.experiments.fig9_freq  # noqa: F401
    import repro.service.runtime  # noqa: F401
    import repro.simulation.population  # noqa: F401

    counts = tracer.counts

    tracer.patch_function(
        "repro.simulation.population", "build_population", "population"
    )

    def count_reports(_args, _kwargs, result) -> None:
        if isinstance(result, np.ndarray):  # raw reports (in-memory collect)
            counts["collect.reports"] += result.size
            return
        accumulators = result if isinstance(result, list) else [result]
        counts["collect.reports"] += sum(acc.n_reports for acc in accumulators)
        tracer.pending_states.append(accumulators)

    for cls in (DAPProtocol, SketchFrequencyDAP):
        tracer.patch_method(cls, "collect_sharded", "collect", count_reports)
    tracer.patch_method(FrequencyDAP, "collect", "collect", count_reports)

    def count_pool(args, kwargs, _result) -> None:
        pool = args[0]
        tasks = args[2] if len(args) > 2 else kwargs["tasks"]
        counts["resilience.pool_tasks"] += len(tasks)
        if pool.label == "engine.unit":
            counts["engine.units"] += len(tasks)

    tracer.patch_method(ResilientPool, "run", "resilience.pool", count_pool)

    for cls in (GroupAccumulator, SketchAccumulator):
        tracer.patch_method(cls, "merge", "accumulators.merge")

    tracer.patch_function(
        "repro.core.features", "estimate_byzantine_features", "probe"
    )
    for cls in (FrequencyDAP, SketchFrequencyDAP):
        tracer.patch_method(cls, "_probe", "probe")

    def em_counter(function: Callable) -> Callable:
        signature = inspect.signature(function)

        def count(args, kwargs, result) -> None:
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            cap = call.arguments["max_iter"]
            iterations = np.atleast_1d(result.n_iterations)
            converged = np.atleast_1d(result.converged)
            screened = np.atleast_1d(getattr(result, "screened", False))
            counts["ems.iters"] += int(iterations.sum())
            counts["ems.cap_hits"] += int(
                np.sum(~converged & ~screened & (iterations >= cap))
            )

        return count

    solvers = ("em_reconstruct", "em_reconstruct_batch", "em_reconstruct_accelerated")
    for name in solvers:
        tracer.patch_function(
            "repro.ldp.ems", name, "ems", em_counter(getattr(ems, name))
        )

    tracer.patch_method(DAPProtocol, "aggregate_stats", "aggregate")
    for cls in (FrequencyDAP, SketchFrequencyDAP):
        tracer.patch_method(cls, "estimate_from_counts", "aggregate")

    tracer.patch_method(CountSketch, "estimate_all", "sketch.decode")

    def count_checkpoint(args, _kwargs, _result) -> None:
        counts["checkpoint.bytes"] += os.path.getsize(args[0].path)

    tracer.patch_method(CheckpointChain, "write", "checkpoint.write", count_checkpoint)

    tracer.patch_function("repro.engine.executor", "run_experiment", "engine")

    evaluate_unit = ExperimentSpec.__dict__["evaluate_unit"]

    @functools.wraps(evaluate_unit)
    def evaluate_unit_shipping(self, unit, trial_seeds):
        if not tracer.enabled or os.getpid() == tracer.parent_pid:
            return evaluate_unit(self, unit, trial_seeds)
        # a forked engine worker: its spans are top level here, and its
        # totals go back to the benchmark process through the work directory
        tracer.stack = []
        before = tracer.snapshot()
        try:
            return evaluate_unit(self, unit, trial_seeds)
        finally:
            tracer.ship_from_worker(before)

    ExperimentSpec.evaluate_unit = evaluate_unit_shipping
    tracer._patched.append((ExperimentSpec, "evaluate_unit", evaluate_unit))
