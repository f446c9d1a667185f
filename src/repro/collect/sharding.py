"""Deterministic shard plans for parallel collection.

A collection round over millions of users is map-reducible by construction:
every accumulator in :mod:`repro.collect.accumulators` carries an associative
``merge()``, so disjoint slices of the report stream can be accumulated
independently and folded back together.  What makes the *parallel* execution
deterministic is the seeding scheme captured here:

* each group's user range is cut into fixed-size **blocks** of
  ``block_size`` users, and one independent seed is pre-drawn per block from
  the master generator, in canonical (group-major, normal-before-byzantine)
  order — one draw, mirroring the engine's pre-drawn seed matrix;
* a **shard** is a contiguous run of whole blocks
  (``numpy.array_split`` over the block index), so every block's reports
  depend only on its own seed and its users' values, never on which shard or
  worker processed it.

Because the blocks — not the shards — own the randomness, the merged
statistics are bit-identical at **any** shard count and any worker count:
``n_shards`` and the process-pool size are pure execution details, on the
same footing as the engine's ``n_workers``.  Only ``block_size`` is part of
the run's identity (it decides how the per-block generators are consumed).

Every sharded route (DAP, and k-RR and count sketch as its one-group case)
runs one worker, :func:`run_shard`, through :func:`collect_shards`; a route
differs only in the client it ships with each :class:`ShardTask`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Sequence, Tuple

import numpy as np

from repro.backends import get_backend, use_backend
from repro.protocol.pipeline import ProtocolPipeline
from repro.resilience.pool import ResilientPool
from repro.utils.profiling import stage
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_integer

#: the :class:`~repro.resilience.pool.ResilientPool` seam name for shard
#: dispatch — fault plans target collection shards through this scope
SHARD_POOL_LABEL = "collect.shard"

#: users per seed block — the granularity of the pre-drawn seed stream
DEFAULT_SHARD_BLOCK = 65_536


def _n_blocks(count: int, block_size: int) -> int:
    return -(-count // block_size) if count else 0


@dataclass(frozen=True, slots=True)
class ShardSlice:
    """One group's share of one shard.

    Attributes
    ----------
    group_index:
        Index of the group this slice belongs to.
    normal_start, normal_stop:
        Contiguous range of the group's normal users covered by this shard
        (indices into the group's normal-value array).
    normal_seeds:
        One seed per normal block in the range, in block order.
    n_byzantine:
        Number of the group's Byzantine users covered by this shard.
    byzantine_seeds:
        One seed per Byzantine block, in block order.
    group_normal, group_byzantine:
        The whole group's head-counts (a client sizes group state from them).
    """

    group_index: int
    normal_start: int
    normal_stop: int
    normal_seeds: Tuple[int, ...]
    n_byzantine: int
    byzantine_seeds: Tuple[int, ...]
    group_normal: int
    group_byzantine: int

    @property
    def n_normal(self) -> int:
        return self.normal_stop - self.normal_start

    @property
    def n_users(self) -> int:
        return self.n_normal + self.n_byzantine


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic split of per-group user ranges into shards.

    Built by :func:`build_shard_plan`; ``shard(s)`` returns the
    :class:`ShardSlice` list a worker needs to process shard ``s``.  The
    pre-drawn block seeds make the merged result independent of ``n_shards``
    and of how the shards are scheduled across workers.
    """

    n_shards: int
    block_size: int
    normal_counts: Tuple[int, ...]
    byzantine_counts: Tuple[int, ...]
    normal_seeds: Tuple[Tuple[int, ...], ...]
    byzantine_seeds: Tuple[Tuple[int, ...], ...]

    @property
    def n_groups(self) -> int:
        return len(self.normal_counts)

    def shard(self, shard_index: int) -> List[ShardSlice]:
        """The per-group slices making up one shard (may be empty)."""
        if not 0 <= shard_index < self.n_shards:
            raise IndexError(
                f"shard index {shard_index} out of range [0, {self.n_shards})"
            )
        slices: List[ShardSlice] = []
        for group in range(self.n_groups):
            normal_blocks = _shard_block_range(
                len(self.normal_seeds[group]), self.n_shards, shard_index
            )
            byz_blocks = _shard_block_range(
                len(self.byzantine_seeds[group]), self.n_shards, shard_index
            )
            n0, n1 = normal_blocks
            b0, b1 = byz_blocks
            normal_start = n0 * self.block_size
            normal_stop = min(self.normal_counts[group], n1 * self.block_size)
            byz_start = b0 * self.block_size
            byz_stop = min(self.byzantine_counts[group], b1 * self.block_size)
            if normal_start >= normal_stop and byz_start >= byz_stop:
                continue
            slices.append(
                ShardSlice(
                    group_index=group,
                    normal_start=normal_start,
                    normal_stop=max(normal_start, normal_stop),
                    normal_seeds=self.normal_seeds[group][n0:n1],
                    n_byzantine=max(0, byz_stop - byz_start),
                    byzantine_seeds=self.byzantine_seeds[group][b0:b1],
                    group_normal=self.normal_counts[group],
                    group_byzantine=self.byzantine_counts[group],
                )
            )
        return slices

    def shards(self) -> List[List[ShardSlice]]:
        """All shards, in shard order."""
        return [self.shard(index) for index in range(self.n_shards)]


def _shard_block_range(n_blocks: int, n_shards: int, shard_index: int) -> Tuple[int, int]:
    """Contiguous ``[start, stop)`` block range owned by one shard.

    Matches ``numpy.array_split(arange(n_blocks), n_shards)[shard_index]``:
    the first ``n_blocks % n_shards`` shards take one extra block.
    """
    base, extra = divmod(n_blocks, n_shards)
    start = shard_index * base + min(shard_index, extra)
    stop = start + base + (1 if shard_index < extra else 0)
    return start, stop


def build_shard_plan(
    normal_counts: Sequence[int],
    byzantine_counts: Sequence[int],
    n_shards: int,
    rng: RngLike = None,
    block_size: int = DEFAULT_SHARD_BLOCK,
) -> ShardPlan:
    """Draw the block-seed streams and freeze them into a :class:`ShardPlan`.

    The master generator is consumed exactly once, for a single flat integer
    draw covering every block in canonical order (group 0's normal blocks,
    group 0's Byzantine blocks, group 1's normal blocks, ...), so the plan —
    and hence every downstream report — is a pure function of the generator
    state, ``block_size`` and the group head-counts.
    """
    n_shards = check_integer(n_shards, "n_shards", minimum=1)
    block_size = check_integer(block_size, "block_size", minimum=1)
    normal_counts = tuple(
        check_integer(int(c), "normal count", minimum=0) for c in normal_counts
    )
    byzantine_counts = tuple(
        check_integer(int(c), "byzantine count", minimum=0) for c in byzantine_counts
    )
    if len(normal_counts) != len(byzantine_counts):
        raise ValueError(
            f"normal_counts and byzantine_counts must align, got "
            f"{len(normal_counts)} vs {len(byzantine_counts)} groups"
        )
    rng = ensure_rng(rng)

    block_counts: List[int] = []
    for normal, byzantine in zip(normal_counts, byzantine_counts):
        block_counts.append(_n_blocks(normal, block_size))
        block_counts.append(_n_blocks(byzantine, block_size))
    total_blocks = int(sum(block_counts))
    flat = rng.integers(0, 2**63 - 1, size=total_blocks, dtype=np.int64)

    normal_seeds: List[Tuple[int, ...]] = []
    byzantine_seeds: List[Tuple[int, ...]] = []
    offset = 0
    for index in range(len(normal_counts)):
        n_blocks = block_counts[2 * index]
        normal_seeds.append(tuple(int(s) for s in flat[offset : offset + n_blocks]))
        offset += n_blocks
        n_blocks = block_counts[2 * index + 1]
        byzantine_seeds.append(tuple(int(s) for s in flat[offset : offset + n_blocks]))
        offset += n_blocks

    return ShardPlan(
        n_shards=n_shards,
        block_size=block_size,
        normal_counts=normal_counts,
        byzantine_counts=byzantine_counts,
        normal_seeds=tuple(normal_seeds),
        byzantine_seeds=tuple(byzantine_seeds),
    )


@dataclass(frozen=True, slots=True)
class ShardTask:
    """One shard for :func:`run_shard`: each :class:`ShardSlice` paired with
    its normal-user values, and the protocol's picklable client — a ``plan``
    plus ``new_accumulator(piece)``, ``encode(group, values, rng)`` and
    ``poison(group, n_users, rng)`` — never the protocol object."""

    client: Any
    pieces: Tuple[Tuple[ShardSlice, np.ndarray], ...]
    block_size: int
    backend: str


def run_shard(task: ShardTask) -> List[Tuple[int, dict]]:
    """Process one shard into ``(group_index, accumulator state)`` pairs.

    Each block is encoded (or poisoned) with its own block seed's generator
    and delivered on that seed's transport lane, under the submitting
    process's array backend, so the output depends only on the task.
    """
    client = task.client
    pipeline = ProtocolPipeline(client.plan)
    block = task.block_size

    def fold(accumulator: Any, reports: np.ndarray, seed: int) -> None:
        # the block seed is the shard-partition-invariant lane key
        reports = pipeline.deliver(reports, (seed,))
        with stage("collect.accumulate"):
            accumulator.update(reports)

    states: List[Tuple[int, dict]] = []
    with use_backend(task.backend):
        for piece, values in task.pieces:
            group = piece.group_index
            accumulator = client.new_accumulator(piece)
            for index, seed in enumerate(piece.normal_seeds):
                chunk = values[index * block : (index + 1) * block]
                if chunk.size:
                    rng = np.random.default_rng(seed)
                    fold(accumulator, client.encode(group, chunk, rng), seed)
            remaining = piece.n_byzantine
            for seed in piece.byzantine_seeds:
                n_users = min(block, remaining)
                remaining -= n_users
                if n_users:
                    rng = np.random.default_rng(seed)
                    fold(accumulator, client.poison(group, n_users, rng), seed)
            states.append((group, accumulator.state_dict()))
    return states


def run_shard_tasks(
    worker: Callable[[Any], Any],
    tasks: Sequence[Any],
    n_workers: int | None,
    pickle_probe: Any = None,
) -> List[Any]:
    """Run shard tasks over the resilient pool harness, in task order.

    The shared execution harness behind every ``collect_sharded`` path, now a
    thin wrapper over :class:`repro.resilience.pool.ResilientPool` (seam
    ``"collect.shard"``).  Results are identical under any worker count, any
    retry, any pool reincarnation and the serial degradation path — each task
    is a pure function of its pre-drawn block seeds.  ``pickle_probe`` (e.g.
    the round's shard client) is test-pickled before a pool is started;
    unpicklable configurations and pool failures degrade to serial execution
    with a single warning per run, mirroring the experiment executor.

    A fresh pool is started per call: the intended workload is a handful of
    very large rounds (pool startup is noise next to a 10^7-user round);
    sweeps over many small rounds should parallelise across work units with
    the engine's ``n_workers`` instead.
    """
    return ResilientPool(n_workers, SHARD_POOL_LABEL).run(
        worker, tasks, pickle_probe=pickle_probe
    )


def collect_shards(
    plan: ShardPlan,
    client: Any,
    group_values: Sequence[np.ndarray],
    accumulators: Sequence[Any],
    n_workers: int | None,
) -> Sequence[Any]:
    """Run every shard of ``plan`` through :func:`run_shard` and merge.

    One task per shard, in shard order and empty shards included, so a
    fault plan's task index is the shard index.  ``group_values[g]`` holds
    group ``g``'s normal-user values; ``accumulators[g]`` receives group
    ``g``'s shard states and is returned.
    """
    backend = get_backend().name
    tasks = []
    for shard in plan.shards():
        pieces = tuple(
            (p, group_values[p.group_index][p.normal_start : p.normal_stop])
            for p in shard
        )
        tasks.append(ShardTask(client, pieces, plan.block_size, backend))
    for states in run_shard_tasks(run_shard, tasks, n_workers, pickle_probe=client):
        for group_index, state in states:
            target = accumulators[group_index]
            target.merge(type(target).from_state(state))
    return accumulators


__all__ = [
    "DEFAULT_SHARD_BLOCK",
    "SHARD_POOL_LABEL",
    "ShardPlan",
    "ShardSlice",
    "ShardTask",
    "build_shard_plan",
    "collect_shards",
    "run_shard",
    "run_shard_tasks",
]
