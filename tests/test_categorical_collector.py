"""The categorical collector shared by the k-RR and count-sketch routes.

``FrequencyDAP`` and ``SketchFrequencyDAP`` run one body of ``collect`` /
``collect_stream`` / ``collect_sharded``.  These tests pin the argument
contract that body enforces on both routes and all three methods:

* poison targets may be any integer sequence, ndarrays included;
* targets are validated once, before any perturbation, generator draw or
  pool start: a missing target set raises the ``poisoned_categories``
  ``ValueError`` and an out-of-range target raises the mechanism's
  ``MechanismError`` (never a pool ``TaskFailedError`` after retries);

plus the removal of the numba backend name.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import check_backend
from repro.cli import build_parser
from repro.collect.sharding import ShardTask, ShardSlice
from repro.core.frequency import FrequencyDAP
from repro.core.sketch_frequency import SketchFrequencyDAP
from repro.ldp.base import MechanismError

N_CATEGORIES = 8
CATEGORIES = np.random.default_rng(3).integers(0, N_CATEGORIES, size=200)


def _krr():
    return FrequencyDAP(1.0, N_CATEGORIES)


def _sketch():
    return SketchFrequencyDAP(1.0, N_CATEGORIES, sketch_rows=2, sketch_width=4)


ROUTES = {"krr": _krr, "sketch": _sketch}


class _Chunks:
    """A category stream that records how many chunks were consumed."""

    def __init__(self) -> None:
        self.consumed = 0

    def __iter__(self):
        for chunk in np.array_split(CATEGORIES, 4):
            self.consumed += 1
            yield chunk


def _run(dap, method: str, targets, n_byzantine: int, rng, **kwargs):
    if method == "collect":
        return dap.collect(CATEGORIES, targets, n_byzantine, rng=rng)
    if method == "collect_stream":
        chunks = kwargs.pop("chunks", None) or _Chunks()
        return dap.collect_stream(chunks, targets, n_byzantine, rng=rng, **kwargs)
    return dap.collect_sharded(
        CATEGORIES, targets, n_byzantine, rng=rng, block_size=64, **kwargs
    )


def _result(output):
    return np.asarray(output if isinstance(output, np.ndarray) else output.counts)


METHODS = ("collect", "collect_stream", "collect_sharded")


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("method", METHODS)
def test_ndarray_targets_match_tuple_targets(route, method):
    dap = ROUTES[route]()
    as_tuple = _run(dap, method, (0, 3), 40, np.random.default_rng(9))
    as_array = _run(dap, method, np.array([0, 3]), 40, np.random.default_rng(9))
    np.testing.assert_array_equal(_result(as_array), _result(as_tuple))


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "targets, error, match",
    [
        ((), ValueError, "poisoned_categories"),
        ((1, 99), MechanismError, r"categories must lie in \[0, 8\)"),
        ((-1,), MechanismError, r"categories must lie in \[0, 8\)"),
    ],
)
def test_bad_targets_rejected_before_any_draw(
    route, method, targets, error, match
):
    dap = ROUTES[route]()
    rng = np.random.default_rng(5)
    chunks = _Chunks()
    extra = {"chunks": chunks} if method == "collect_stream" else {}
    if method == "collect_sharded":
        # a pool worker would retry a deterministic error and surface
        # TaskFailedError; validation must fire before any pool starts
        extra = {"n_shards": 3, "n_workers": 2}
    with pytest.raises(error, match=match):
        _run(dap, method, targets, 30, rng, **extra)
    assert chunks.consumed == 0
    assert rng.integers(2**62) == np.random.default_rng(5).integers(2**62)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_in_memory_collect_never_reports_outside_the_domain(route):
    dap = ROUTES[route]()
    with pytest.raises(MechanismError):
        dap.collect(CATEGORIES, (99,), 10, rng=0)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_targets_unused_without_byzantine_users_are_still_validated(route):
    with pytest.raises(MechanismError):
        ROUTES[route]().collect_sharded(CATEGORIES, (99,), 0, rng=0)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_one_task_per_shard_including_empty_shards(route, monkeypatch):
    """200 users in 64-user blocks make 4 blocks; 6 shards leave 2 empty."""
    import repro.collect.sharding as sharding

    submitted: list[ShardTask] = []
    real_run = sharding.ResilientPool.run

    def recording_run(self, worker, tasks, **kwargs):
        submitted.extend(tasks)
        return real_run(self, worker, tasks, **kwargs)

    monkeypatch.setattr(sharding.ResilientPool, "run", recording_run)
    dap = ROUTES[route]()
    sharded = _run(dap, "collect_sharded", (0,), 0, 1, n_shards=6)
    assert len(submitted) == 6
    assert [len(task.pieces) for task in submitted] == [1, 1, 1, 1, 0, 0]
    assert all(
        isinstance(piece, ShardSlice) for task in submitted for piece, _ in task.pieces
    )
    reference = _run(dap, "collect_sharded", (0,), 0, 1, n_shards=1)
    np.testing.assert_array_equal(sharded.counts, reference.counts)


def test_numba_is_no_longer_a_backend(capsys):
    with pytest.raises(ValueError, match="expected one of numpy, fast"):
        check_backend("numba")
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["run", "scenario.json", "--backend", "numba"])
    assert exit_info.value.code == 2
    assert "'numpy', 'fast'" in capsys.readouterr().err
