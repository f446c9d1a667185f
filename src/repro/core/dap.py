"""Differential Aggregation Protocol — DAP (Section V, Figure 3).

The five stages of the protocol:

1. **Grouping** — users are randomly assigned to ``h = ceil(log2(eps/eps0)) + 1``
   equal-sized groups whose budgets form the ladder ``{eps, eps/2, ..., eps0}``.
   Users in a small-budget group report multiple times (``eps / eps_t`` reports)
   so every user spends exactly ``eps`` in total.
2. **Perturbation** — each user perturbs with her group's budget; Byzantine
   users instead submit poison values inside that group's output domain.
3. **Probing** — the collector runs EMF per group; the poisoned side and the
   Byzantine proportion are taken from the smallest-budget group, where
   Theorem 3 makes them most accurate.
4. **Intra-group estimation** — each group's mean is corrected for the
   reconstructed poison mass (Equation 13), optionally after the EMF* or
   CEMF* post-processing.
5. **Inter-group aggregation** — the group means are combined with the
   minimum-variance weights of Theorem 6.

``DAPProtocol.run`` simulates the client side and the collector side end to
end; ``DAPProtocol.aggregate`` is the collector-only entry point that consumes
already-collected per-group reports.

The collector only ever needs *sufficient statistics* of the report stream —
the output-grid histogram (probing + the EMF family) and the report sum and
count (corrected mean) — so the whole pipeline also runs in bounded memory:
``collect_stream`` consumes user values chunk by chunk into per-group
:class:`~repro.collect.GroupAccumulator` objects, and
``aggregate_accumulated`` / ``aggregate_stats`` run stages 3-5 on the
accumulated statistics, bit-identical to the in-memory path on the same
reports.

Every collection path (in-memory, streaming, sharded) lowers to the shared
client → transport → server pipeline of :mod:`repro.protocol`: the client
stage applies the contribution cap and hands compromised slots to the
attack (under the shuffle protocol, against the group-blind
domain-intersection view), the transport stage is an identity pass-through
(``protocol="local"``) or the seeded shuffler (``protocol="shuffle"``),
and the server stage folds accumulators and — under shuffle — writes the
privacy-amplification ledger into :class:`DAPResult`.

Every path draws through one client (``_DAPClient``: configuration and
attack, never the protocol object), which ``collect_sharded`` hands to the
shard worker of :mod:`repro.collect.sharding` shared with the categorical
routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Literal, Mapping, Sequence, Tuple

import numpy as np

from repro.attacks.base import Attack, NoAttack
from repro.collect.accumulators import GroupAccumulator, GroupStats
from repro.collect.sharding import (
    DEFAULT_SHARD_BLOCK,
    ShardSlice,
    build_shard_plan,
    collect_shards,
)
from repro.collect.streaming import DEFAULT_CHUNK_SIZE
from repro.core.aggregation import aggregate_means, aggregation_weights
from repro.core.cemf_star import DEFAULT_SUPPRESSION_FACTOR, run_cemf_star
from repro.core.emf import EMFResult, run_emf
from repro.core.emf_star import run_emf_star
from repro.core.features import ByzantineFeatures, estimate_byzantine_features
from repro.core.mean_estimation import corrected_mean_from_stats
from repro.core.probing import check_probe_strategy
from repro.core.transform import cached_transform_matrix, default_bucket_counts
from repro.ldp.base import NumericalMechanism
from repro.ldp.budget import dap_budget_ladder
from repro.ldp.piecewise import PiecewiseMechanism
from repro.protocol.client import intersection_output_domain
from repro.protocol.pipeline import ProtocolPipeline
from repro.protocol.plan import ProtocolPlan, check_contribution_cap, check_protocol
from repro.utils.discretization import BucketGrid
from repro.utils.profiling import profiled_stage, stage
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_integer, check_positive

MechanismFactory = Callable[[float], NumericalMechanism]
EstimatorName = Literal["emf", "emf_star", "cemf_star"]


@dataclass
class DAPConfig:
    """Configuration of the DAP protocol.

    Attributes
    ----------
    epsilon:
        Total per-user privacy budget.
    epsilon_min:
        Minimum acceptable group budget ``eps_0`` (1/16 in the paper).
    estimator:
        Which reconstruction drives the intra-group correction: ``"emf"``,
        ``"emf_star"`` or ``"cemf_star"`` — the three DAP variants of Figure 6.
    mechanism_factory:
        Budget -> mechanism constructor (PM by default; pass
        ``SquareWaveMechanism`` for the Figure 8 variant).
    reference_mean:
        The collector's ``O'`` (``None`` = output-domain centre, the paper's
        simplification).
    n_input_buckets / n_output_buckets:
        Grid resolutions; ``None`` uses the paper defaults per group.
    suppression_factor:
        CEMF* bucket-suppression threshold factor.
    intra_group_mean:
        ``"corrected_sum"`` (Equation 13 — subtract the reconstructed poison
        contribution from the report sum; correct for unbiased mechanisms such
        as PM) or ``"distribution"`` (take the mean of the reconstructed
        normal-user histogram — the route used with Square Wave, whose raw
        reports are biased).
    max_reports_per_user:
        Safety cap on the per-user report multiplicity for tiny ``eps_0``.
    probe_strategy:
        How the probing stage evaluates its side hypotheses: ``"batched"``
        (default) solves both sides in one stacked EM over their shared
        normal block — same side selections, statistically equivalent
        reconstructions; ``"cold"`` solves each side independently,
        bit-identical to the seed implementation.  A pure execution detail
        of the collector (see
        :func:`repro.core.probing.probe_poisoned_side`).
    protocol:
        Trust model of the round (identity knob): ``"local"`` (default;
        bit-identical to the historical behaviour) or ``"shuffle"`` (seeded
        shuffler transport, group-blind adversary, amplification ledger) —
        see :mod:`repro.protocol`.
    contribution_cap:
        Client-gate upper bound on reports per user (``None`` = no cap).
        Reports beyond the cap are dropped deterministically before
        perturbation and tallied into ``DAPResult.skipped_reports``.
    shuffle_seed:
        Execution-detail reseed of the shuffler's permutation lanes; cannot
        change any accumulator statistic (property-tested), so it never
        enters documents or fingerprints.
    """

    epsilon: float
    epsilon_min: float = 1.0 / 16.0
    estimator: EstimatorName = "cemf_star"
    mechanism_factory: MechanismFactory = PiecewiseMechanism
    reference_mean: float | None = None
    n_input_buckets: int | None = None
    n_output_buckets: int | None = None
    suppression_factor: float = DEFAULT_SUPPRESSION_FACTOR
    intra_group_mean: Literal["corrected_sum", "distribution"] = "corrected_sum"
    max_reports_per_user: int = 64
    probe_strategy: str = "batched"
    protocol: str = "local"
    contribution_cap: int | None = None
    shuffle_seed: int = 0

    def __post_init__(self) -> None:
        check_positive(self.epsilon, "epsilon")
        check_positive(self.epsilon_min, "epsilon_min")
        if self.epsilon_min > self.epsilon:
            raise ValueError(
                f"epsilon_min ({self.epsilon_min:g}) must not exceed epsilon "
                f"({self.epsilon:g})"
            )
        if self.estimator not in ("emf", "emf_star", "cemf_star"):
            raise ValueError(
                f"estimator must be 'emf', 'emf_star' or 'cemf_star', got "
                f"{self.estimator!r}"
            )
        if self.intra_group_mean not in ("corrected_sum", "distribution"):
            raise ValueError(
                "intra_group_mean must be 'corrected_sum' or 'distribution', got "
                f"{self.intra_group_mean!r}"
            )
        check_integer(self.max_reports_per_user, "max_reports_per_user", minimum=1)
        check_probe_strategy(self.probe_strategy)
        check_protocol(self.protocol)
        check_contribution_cap(self.contribution_cap)

    @property
    def protocol_plan(self) -> ProtocolPlan:
        """The pipeline contract this configuration lowers to."""
        return ProtocolPlan(
            protocol=self.protocol,
            contribution_cap=self.contribution_cap,
            shuffle_seed=self.shuffle_seed,
        )

    @property
    def budget_ladder(self) -> List[float]:
        """Group budgets ``{eps, eps/2, ..., eps_0}``."""
        return dap_budget_ladder(self.epsilon, self.epsilon_min)

    @property
    def n_groups(self) -> int:
        """Number of groups ``h``."""
        return len(self.budget_ladder)


@dataclass
class GroupCollection:
    """Reports collected from one group.

    Attributes
    ----------
    epsilon:
        The group's privacy budget ``eps_t``.
    reports:
        All reports from the group (normal + poison), one entry per report
        (users may contribute several).
    n_users:
        Number of users assigned to the group (normal + Byzantine).
    """

    epsilon: float
    reports: np.ndarray
    n_users: int = 0

    def __post_init__(self) -> None:
        self.reports = np.asarray(self.reports, dtype=float).ravel()

    @property
    def n_reports(self) -> int:
        """Number of collected reports ``N_t``."""
        return int(self.reports.size)


@dataclass
class GroupEstimate:
    """Collector-side result for one group.

    Attributes
    ----------
    epsilon:
        The group budget.
    mean:
        The poison-corrected intra-group mean ``M_t``.
    gamma_hat:
        Poison proportion reconstructed in this group.
    n_reports:
        Number of reports the group contributed.
    n_normal_estimate:
        Estimated number of normal *users* ``n_hat_t`` (reports rescaled by
        ``eps_t / eps``).
    weight:
        Aggregation weight assigned by Theorem 6 (filled in at aggregation).
    emf:
        The reconstruction (EMF / EMF* / CEMF*) the mean was derived from.
    """

    epsilon: float
    mean: float
    gamma_hat: float
    n_reports: int
    n_normal_estimate: float
    weight: float = 0.0
    emf: EMFResult | None = None


@dataclass
class DAPResult:
    """Final outcome of a DAP run.

    Attributes
    ----------
    estimate:
        The aggregated mean estimate ``M_tilde``.
    poisoned_side:
        Side selected by the probing stage.
    gamma_hat:
        Byzantine proportion probed in the smallest-budget group.
    group_estimates:
        Per-group details (budget, corrected mean, weight, ...).
    features:
        The probing stage's full :class:`~repro.core.features.ByzantineFeatures`
        (both side EMF runs included), so incremental callers can warm-start
        the next round's probe from ``features.probe.warm_weights()``.
    skipped_reports:
        Reports dropped by the contribution-cap client gate (0 when no cap
        is configured); filled by the end-to-end entry points, which know
        the population size.
    amplification:
        Privacy-amplification ledger, one row per contributing group
        (``epsilon_local`` / ``n_reports`` / ``delta`` / ``epsilon_central``
        / ``amplification_factor``); ``None`` under the local protocol.
    """

    estimate: float
    poisoned_side: str
    gamma_hat: float
    group_estimates: List[GroupEstimate] = field(default_factory=list)
    features: ByzantineFeatures | None = None
    skipped_reports: int = 0
    amplification: List[dict] | None = None

    @property
    def weights(self) -> np.ndarray:
        """Aggregation weights, in group order."""
        return np.array([g.weight for g in self.group_estimates])


class DAPProtocol:
    """The multi-group Differential Aggregation Protocol."""

    def __init__(self, config: DAPConfig) -> None:
        self.config = config
        self._mechanisms = {
            eps: config.mechanism_factory(eps) for eps in config.budget_ladder
        }

    # ------------------------------------------------------------------
    # protocol pipeline (client → transport → server contract)
    # ------------------------------------------------------------------
    @property
    def plan(self) -> ProtocolPlan:
        """The protocol contract, derived lazily from the (mutable) config."""
        return self.config.protocol_plan

    @property
    def pipeline(self) -> ProtocolPipeline:
        """Stage helpers for the configured protocol (cheap to build)."""
        return ProtocolPipeline(self.plan)

    def adversary_mechanism(self, epsilon: float) -> NumericalMechanism:
        """The mechanism view the attack stage sees for one budget group.

        Local protocol: the group's own mechanism.  Shuffle protocol: the
        group-blind :class:`~repro.ldp.base.DomainRestrictedMechanism` over
        the ladder-wide output-domain intersection.
        """
        return self.pipeline.adversary_view(
            self.mechanism_for(epsilon), self._mechanisms
        )

    def contribution_summary(self, n_total: int) -> int:
        """Reports the contribution cap drops for ``n_total`` users.

        Deterministic without simulating: group head-counts are fixed by
        the nearly-equal split and per-user multiplicities by the ladder.
        """
        return self.pipeline.skipped_reports(
            self.group_sizes(n_total),
            [self._uncapped_reports_per_user(eps) for eps in self.config.budget_ladder],
        )

    def poison_domain(self) -> tuple[float, float] | None:
        """The poison support the *server* may assume, per trust model.

        The server conditions its reconstruction on the same contract the
        adversary is bound by: under the shuffle protocol poison lies in
        the ladder-wide output-domain intersection, so stages 3-4 restrict
        their poison columns to it; under the local protocol the adversary
        owns each group's whole poisoned side (``None`` — the historical,
        bit-identical hypotheses).
        """
        if not self.plan.is_shuffle:
            return None
        return intersection_output_domain(tuple(self._mechanisms.values()))

    # ------------------------------------------------------------------
    # client-side simulation
    # ------------------------------------------------------------------
    def mechanism_for(self, epsilon: float) -> NumericalMechanism:
        """The mechanism instance used by the group with budget ``epsilon``."""
        return self._mechanisms[epsilon]

    @profiled_stage("collect")
    def collect(
        self,
        normal_values: np.ndarray,
        attack: Attack | None = None,
        n_byzantine: int = 0,
        rng: RngLike = None,
    ) -> List[GroupCollection]:
        """Simulate grouping + perturbation and return per-group reports.

        Normal users perturb their value ``eps / eps_t`` times with their
        group's mechanism; Byzantine users submit the same number of poison
        reports drawn from the attack strategy against that group's output
        domain (under the shuffle protocol, against the group-blind
        domain-intersection view), and each group's batch then rides the
        transport stage — identity (local) or the seeded shuffler.
        """
        rng = ensure_rng(rng)
        attack = attack or NoAttack()
        pipeline = self.pipeline
        normal_values = np.asarray(normal_values, dtype=float).ravel()
        n_byzantine = check_integer(n_byzantine, "n_byzantine", minimum=0)

        n_normal = normal_values.size
        n_total = n_normal + n_byzantine
        if n_total == 0:
            raise ValueError("at least one user is required")

        ladder = self.config.budget_ladder
        h = len(ladder)

        # random assignment into h (nearly) equal-sized groups
        user_indices = rng.permutation(n_total)
        group_of_user = np.empty(n_total, dtype=int)
        for group_index, member in enumerate(np.array_split(user_indices, h)):
            group_of_user[member] = group_index

        client = _DAPClient(self.config, attack)
        groups: List[GroupCollection] = []
        for group_index, epsilon_t in enumerate(ladder):
            members = np.flatnonzero(group_of_user == group_index)
            normal_members = members[members < n_normal]
            byzantine_members = members[members >= n_normal]
            repeats = self._reports_per_user(epsilon_t)

            pieces = []
            if normal_members.size and repeats:
                values = normal_values[normal_members]
                pieces.append(client.encode(group_index, values, rng))
            if byzantine_members.size and repeats:
                n_users = int(byzantine_members.size)
                pieces.append(client.poison(group_index, n_users, rng))
            reports = np.concatenate(pieces) if pieces else np.empty(0)
            reports = pipeline.deliver(reports, (group_index, reports.size))
            groups.append(
                GroupCollection(
                    epsilon=epsilon_t, reports=reports, n_users=int(members.size)
                )
            )
        return groups

    def _uncapped_reports_per_user(self, epsilon_t: float) -> int:
        """The ladder's per-user multiplicity, before the contribution cap."""
        repeats = int(round(self.config.epsilon / epsilon_t))
        return max(1, min(repeats, self.config.max_reports_per_user))

    def _reports_per_user(self, epsilon_t: float) -> int:
        """How many reports a user in the ``epsilon_t`` group submits."""
        return self.plan.effective_repeats(self._uncapped_reports_per_user(epsilon_t))

    def _reference_mean(self, mechanism: NumericalMechanism) -> float:
        if self.config.reference_mean is not None:
            return self.config.reference_mean
        low, high = mechanism.output_domain
        return 0.5 * (low + high)

    # ------------------------------------------------------------------
    # streaming accumulators
    # ------------------------------------------------------------------
    def group_sizes(self, n_total: int) -> List[int]:
        """User head-count per group for a population of ``n_total``.

        Matches the (nearly) equal split of :meth:`collect`: the first
        ``n_total % h`` groups receive one extra user.
        """
        n_total = check_integer(n_total, "n_total", minimum=1)
        h = self.config.n_groups
        base, extra = divmod(n_total, h)
        return [base + 1 if index < extra else base for index in range(h)]

    def group_output_grid(self, epsilon: float, n_reports: int) -> BucketGrid:
        """The output-domain grid the collector uses for a group's histogram."""
        _, d_out = self._bucket_counts(n_reports, epsilon)
        low, high = self.mechanism_for(epsilon).output_domain
        return BucketGrid(low, high, d_out)

    def group_accumulator(
        self, epsilon: float, n_expected_reports: int, n_users: int = 0
    ) -> GroupAccumulator:
        """A chunked accumulator holding one group's sufficient statistics.

        The accumulator's histogram grid is sized from ``n_expected_reports``
        (the collector knows it up front: group sizes and per-user report
        multiplicities are fixed by the grouping stage), so feeding exactly
        that many reports — in chunks of any size — yields statistics
        bit-identical to an in-memory :class:`GroupCollection`.
        """
        grid = self.group_output_grid(epsilon, max(1, n_expected_reports))
        return GroupAccumulator(
            epsilon, grid, n_expected_reports=n_expected_reports, n_users=n_users
        )

    @profiled_stage("collect")
    def collect_stream(
        self,
        value_chunks: Iterable[np.ndarray],
        n_normal: int,
        attack: Attack | None = None,
        n_byzantine: int = 0,
        rng: RngLike = None,
        poison_chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> List[GroupAccumulator]:
        """Streaming grouping + perturbation: constant memory in ``n_normal``.

        The chunked counterpart of :meth:`collect`: normal users' values
        arrive as an iterable of chunks (``n_normal`` must be declared up
        front so groups can be sized), each chunk is assigned to groups,
        perturbed and folded into per-group accumulators, and poison reports
        are drawn in bounded chunks.  Peak memory is proportional to the
        chunk size times the report multiplicity, never to the population.

        Group head-counts are identical in distribution to :meth:`collect`'s
        random assignment (per-chunk counts are drawn from the multivariate
        hypergeometric law over the groups' remaining slots), but the two
        paths consume randomness differently, so individual draws differ.
        """
        rng = ensure_rng(rng)
        attack = attack or NoAttack()
        client = _DAPClient(self.config, attack)
        pipeline = self.pipeline
        n_normal = check_integer(n_normal, "n_normal", minimum=0)
        n_byzantine = check_integer(n_byzantine, "n_byzantine", minimum=0)
        n_total = n_normal + n_byzantine
        if n_total == 0:
            raise ValueError("at least one user is required")

        ladder = self.config.budget_ladder
        h = len(ladder)
        sizes = np.asarray(self.group_sizes(n_total), dtype=np.int64)
        # random user->group assignment makes each group's Byzantine
        # head-count multivariate hypergeometric over the group slots
        if n_byzantine:
            byz_counts = rng.multivariate_hypergeometric(sizes, n_byzantine)
        else:
            byz_counts = np.zeros(h, dtype=np.int64)
        remaining = sizes - byz_counts

        # silent attacks (NoAttack) contribute no reports, so the expected
        # count — which sizes the histogram grid and doubles as a
        # consistency check — asks the attack for its poison report count
        accumulators = [
            self.group_accumulator(
                epsilon_t,
                int(size - byz) * self._reports_per_user(epsilon_t)
                + attack.n_poison_reports(int(byz) * self._reports_per_user(epsilon_t)),
                n_users=int(size),
            )
            for epsilon_t, size, byz in zip(ladder, sizes, byz_counts)
        ]

        consumed = 0
        # one delivery lane per (group, delivered batch): streaming batches
        # ride the transport independently, so the shuffler composes with
        # any chunking (its statistics are permutation-invariant anyway)
        lane_counters = [0] * h
        for chunk in value_chunks:
            chunk = np.asarray(chunk, dtype=float).ravel()
            if chunk.size == 0:
                continue
            consumed += chunk.size
            if consumed > n_normal:
                raise ValueError(
                    f"value stream yielded more than the declared "
                    f"n_normal={n_normal} values"
                )
            counts = rng.multivariate_hypergeometric(remaining, chunk.size)
            remaining = remaining - counts
            assignment = np.repeat(np.arange(h), counts)
            rng.shuffle(assignment)
            for group_index, epsilon_t in enumerate(ladder):
                values = chunk[assignment == group_index]
                repeats = self._reports_per_user(epsilon_t)
                if not values.size or not repeats:
                    continue
                reports = client.encode(group_index, values, rng)
                reports = pipeline.deliver(
                    reports, (group_index, lane_counters[group_index], reports.size)
                )
                lane_counters[group_index] += 1
                with stage("collect.accumulate"):
                    accumulators[group_index].update(reports)
        if consumed != n_normal:
            raise ValueError(
                f"value stream yielded {consumed} normal values, expected "
                f"{n_normal}"
            )

        for group_index, epsilon_t in enumerate(ladder):
            n_byz = int(byz_counts[group_index])
            n_poison = n_byz * self._reports_per_user(epsilon_t)
            if not n_poison:
                continue
            view = self.adversary_mechanism(epsilon_t)
            reference = self._reference_mean(view)
            chunks = attack.poison_report_chunks(
                n_poison, view, reference, rng, chunk_size=poison_chunk_size
            )
            # drive the generator with next() so the poison drawing and the
            # accumulator update land in their own sub-timers (a for-loop
            # would charge the draw of chunk i+1 to the accumulate stage)
            while True:
                with stage("collect.poison"):
                    piece = next(chunks, None)
                if piece is None:
                    break
                piece = pipeline.deliver(
                    piece, (group_index, lane_counters[group_index], piece.size)
                )
                lane_counters[group_index] += 1
                with stage("collect.accumulate"):
                    accumulators[group_index].update(piece)
        return accumulators

    # ------------------------------------------------------------------
    # sharded collection
    # ------------------------------------------------------------------
    @profiled_stage("collect")
    def collect_sharded(
        self,
        normal_values: np.ndarray,
        attack: Attack | None = None,
        n_byzantine: int = 0,
        rng: RngLike = None,
        n_shards: int = 1,
        n_workers: int | None = None,
        block_size: int = DEFAULT_SHARD_BLOCK,
    ) -> List[GroupAccumulator]:
        """Sharded grouping + perturbation: one collection round, many cores.

        The population is assigned to groups with the *same* master-generator
        permutation draw as :meth:`collect` (group composition is identical
        bit for bit), then each group's user range is cut into fixed-size
        blocks with one pre-drawn seed per block
        (:func:`repro.collect.build_shard_plan`).  A shard — a contiguous run
        of whole blocks — is processed by the shard worker every sharded
        route shares (:func:`repro.collect.sharding.run_shard`) into fresh
        :class:`~repro.collect.GroupAccumulator` objects, and shard results
        are folded back with ``merge()``.

        Because the blocks own the randomness, the merged accumulators are
        bit-identical at any ``n_shards`` and any ``n_workers`` (both are
        execution details); only ``block_size`` is part of the run identity.
        Shard results cross process boundaries as accumulator snapshots
        (bucket counts plus compacted sum partials), never as raw reports.

        Parameters
        ----------
        normal_values:
            The normal users' values (materialised; at 10^7 users this is
            ~80 MiB — the reports, which would be an order of magnitude
            larger, are never materialised).
        attack, n_byzantine, rng:
            As in :meth:`collect`.
        n_shards:
            Number of independent work units to split the round into.
        n_workers:
            ``None`` / ``1`` runs the shards in-process; larger values fan
            them out over a process pool (capped at ``n_shards``).
        block_size:
            Users per seed block (identity-relevant; keep the default unless
            benchmarking).
        """
        rng = ensure_rng(rng)
        attack = attack or NoAttack()
        normal_values = np.asarray(normal_values, dtype=float).ravel()
        n_byzantine = check_integer(n_byzantine, "n_byzantine", minimum=0)
        n_normal = normal_values.size
        n_total = n_normal + n_byzantine
        if n_total == 0:
            raise ValueError("at least one user is required")

        ladder = self.config.budget_ladder
        h = len(ladder)

        # identical group assignment to collect(): same permutation draw,
        # same nearly-equal split, members processed in ascending user order
        user_indices = rng.permutation(n_total)
        group_values: List[np.ndarray] = []
        group_byzantine: List[int] = []
        for piece in np.array_split(user_indices, h):
            members = np.sort(piece)
            normal_members = members[members < n_normal]
            group_values.append(normal_values[normal_members])
            group_byzantine.append(int(members.size - normal_members.size))

        plan = build_shard_plan(
            [values.size for values in group_values],
            group_byzantine,
            n_shards=n_shards,
            rng=rng,
            block_size=block_size,
        )
        client = _DAPClient(self.config, attack)
        accumulators = [
            self.group_accumulator(
                epsilon_t,
                client.expected_reports(index, group_values[index].size, n_byz),
                n_users=0,
            )
            for index, (epsilon_t, n_byz) in enumerate(zip(ladder, group_byzantine))
        ]
        return collect_shards(plan, client, group_values, accumulators, n_workers)

    def run_sharded(
        self,
        normal_values: np.ndarray,
        attack: Attack | None = None,
        n_byzantine: int = 0,
        rng: RngLike = None,
        n_shards: int = 1,
        n_workers: int | None = None,
        block_size: int = DEFAULT_SHARD_BLOCK,
    ) -> DAPResult:
        """One full DAP round through the sharded collection path."""
        accumulators = self.collect_sharded(
            normal_values,
            attack,
            n_byzantine,
            rng=rng,
            n_shards=n_shards,
            n_workers=n_workers,
            block_size=block_size,
        )
        result = self.aggregate_accumulated(accumulators)
        result.skipped_reports = self.contribution_summary(
            int(np.asarray(normal_values).size) + int(n_byzantine)
        )
        return result

    # ------------------------------------------------------------------
    # collector side
    # ------------------------------------------------------------------
    def group_stats(self, group: GroupCollection) -> GroupStats:
        """Reduce an in-memory group to its sufficient statistics."""
        accumulator = self.group_accumulator(
            group.epsilon, group.n_reports, n_users=group.n_users
        )
        return accumulator.update(group.reports).stats()

    def aggregate(self, groups: Sequence[GroupCollection]) -> DAPResult:
        """Probing + intra-group estimation + inter-group aggregation.

        The in-memory entry point: each group's raw reports are reduced to
        :class:`~repro.collect.GroupStats` (a one-chunk accumulator pass) and
        handed to :meth:`aggregate_stats` — the collector never needs more
        than the sufficient statistics.
        """
        groups = [g for g in groups if g.n_reports > 0]
        if not groups:
            raise ValueError("no group contributed any reports")
        return self.aggregate_stats([self.group_stats(group) for group in groups])

    def aggregate_accumulated(
        self, accumulators: Sequence[GroupAccumulator]
    ) -> DAPResult:
        """Aggregate from streaming accumulators (see :meth:`collect_stream`)."""
        stats = [acc.stats() for acc in accumulators if acc.n_reports > 0]
        if not stats:
            raise ValueError("no group contributed any reports")
        return self.aggregate_stats(stats)

    def aggregate_stats(
        self,
        stats: Sequence[GroupStats],
        probe_warm_start: Mapping[str, np.ndarray] | None = None,
    ) -> DAPResult:
        """Stages 3-5 on per-group sufficient statistics.

        Bit-identical to feeding the same reports through the in-memory
        :meth:`aggregate`: EMF and its variants already operate on the
        output-grid histogram, and the corrected mean only needs the report
        sum and count, so no stage ever touches raw reports.

        ``probe_warm_start`` optionally seeds the probing stage's side EMs
        from a previous round's converged weights
        (:meth:`~repro.core.probing.SideProbeResult.warm_weights` of the
        returned ``result.features.probe``) — the incremental path the
        windowed service runs every window.
        """
        stats = [s for s in stats if s.n_reports > 0]
        if not stats:
            raise ValueError("no group contributed any reports")
        for group in stats:
            self._check_stats_geometry(group)

        # --- stage 3: probe side and gamma in the smallest-budget group ----------
        with stage("probe"):
            probe_stats = min(stats, key=lambda s: s.epsilon)
            probe_mechanism = self.mechanism_for(probe_stats.epsilon)
            d_in, d_out = self._bucket_counts(
                probe_stats.n_reports, probe_stats.epsilon
            )
            features = estimate_byzantine_features(
                probe_mechanism,
                counts=probe_stats.output_counts,
                n_reports=probe_stats.n_reports,
                n_input_buckets=d_in,
                n_output_buckets=d_out,
                reference_mean=self.config.reference_mean,
                epsilon=probe_stats.epsilon,
                strategy=self.config.probe_strategy,
                warm_start=probe_warm_start,
                poison_domain=self.poison_domain(),
            )
        side = features.side
        gamma_global = features.gamma_hat

        with stage("aggregate"):
            # --- stage 4: per-group reconstruction + corrected mean --------------
            # The probing stage already ran EMF on the probe group with the
            # exact transform, counts and tolerance stage 4 would use (the
            # paper's tau applies to both), so its reconstruction is reused
            # instead of being recomputed.  The distribution route tightens
            # the tolerance, so it cannot reuse the probe run.
            reusable = (
                features.emf
                if self.config.intra_group_mean == "corrected_sum"
                else None
            )
            estimates: List[GroupEstimate] = []
            for group in stats:
                reuse = reusable if group is probe_stats else None
                estimates.append(
                    self._estimate_group(
                        group, side=side, gamma_global=gamma_global, reuse_emf=reuse
                    )
                )

            # --- stage 5: minimum-variance aggregation ---------------------------
            variances = [
                self.mechanism_for(e.epsilon).worst_case_variance()
                for e in estimates
            ]
            weights = aggregation_weights(
                [e.epsilon for e in estimates],
                [e.n_normal_estimate for e in estimates],
                per_report_variances=variances,
            )
            for estimate, weight in zip(estimates, weights):
                estimate.weight = float(weight)
            aggregated = aggregate_means([e.mean for e in estimates], weights)

        return DAPResult(
            estimate=aggregated,
            poisoned_side=side,
            gamma_hat=gamma_global,
            group_estimates=estimates,
            features=features,
            amplification=self.pipeline.ledger(
                [group.epsilon for group in stats],
                [group.n_reports for group in stats],
            ),
        )

    def _check_stats_geometry(self, stats: GroupStats) -> None:
        """Reject statistics accumulated on a grid the collector cannot use."""
        expected = self.group_output_grid(stats.epsilon, max(1, stats.n_reports))
        if stats.output_grid != expected:
            raise ValueError(
                f"group (epsilon={stats.epsilon:g}) statistics were accumulated "
                f"on a {stats.output_grid.n_buckets}-bucket grid over "
                f"[{stats.output_grid.low:g}, {stats.output_grid.high:g}], but "
                f"{stats.n_reports} reports call for {expected.n_buckets} buckets "
                f"over [{expected.low:g}, {expected.high:g}]; build the "
                f"accumulator via DAPProtocol.group_accumulator with the true "
                f"expected report count"
            )
        if stats.output_counts.shape != (expected.n_buckets,):
            raise ValueError(
                f"group (epsilon={stats.epsilon:g}) has "
                f"{stats.output_counts.shape} counts for a "
                f"{expected.n_buckets}-bucket grid"
            )

    def _estimate_group(
        self,
        group: GroupStats,
        side: str,
        gamma_global: float,
        reuse_emf: EMFResult | None = None,
    ) -> GroupEstimate:
        """Stage 4 for one group: reconstruct, correct, convert to users.

        ``reuse_emf`` short-circuits the plain EMF run when the caller already
        holds a reconstruction of this group against the same transform (the
        probing stage produces exactly that for the probe group).  The reuse
        is rejected unless the transform geometry matches, so results are
        identical with or without it.
        """
        mechanism = self.mechanism_for(group.epsilon)
        d_in, d_out = self._bucket_counts(group.n_reports, group.epsilon)
        if reuse_emf is not None and not self._transform_matches(
            reuse_emf, d_in, d_out, side
        ):
            reuse_emf = None
        if reuse_emf is not None:
            transform = reuse_emf.transform
        else:
            transform = cached_transform_matrix(
                mechanism,
                n_input_buckets=d_in,
                n_output_buckets=d_out,
                side=side,
                reference_mean=self.config.reference_mean,
                poison_domain=self.poison_domain(),
            )
        counts = group.output_counts

        # the distribution route needs a sharply converged histogram, so it
        # tightens the paper's probing tolerance tau = 0.01 * e^eps
        tol = 1e-6 if self.config.intra_group_mean == "distribution" else None

        # plain EMF is only an input to the "emf" and "cemf_star" estimators;
        # EMF* re-runs EM from scratch with its constrained M-step
        emf: EMFResult | None = None
        if self.config.estimator in ("emf", "cemf_star"):
            emf = reuse_emf or run_emf(
                transform, counts=counts, epsilon=group.epsilon, tol=tol
            )
        if self.config.estimator == "emf":
            reconstruction = emf
        elif self.config.estimator == "emf_star":
            reconstruction = run_emf_star(
                transform,
                gamma_hat=gamma_global,
                counts=counts,
                epsilon=group.epsilon,
                tol=tol,
            )
        else:  # cemf_star
            reconstruction = run_cemf_star(
                transform,
                emf_result=emf,
                gamma_hat=gamma_global,
                counts=counts,
                epsilon=group.epsilon,
                suppression_factor=self.config.suppression_factor,
                tol=tol,
            )

        gamma_t = reconstruction.gamma_hat
        if self.config.intra_group_mean == "corrected_sum":
            mean_t = corrected_mean_from_stats(
                group.report_sum,
                group.n_reports,
                gamma_hat=gamma_t,
                poison_mean=reconstruction.poison_mean,
                input_domain=mechanism.input_domain,
            )
        else:
            low, high = mechanism.input_domain
            mean_t = float(
                np.clip(reconstruction.estimated_normal_mean(), low, high)
            )
        m_hat_t = gamma_t * group.n_reports
        n_normal_estimate = max(0.0, (group.n_reports - m_hat_t)) * (
            group.epsilon / self.config.epsilon
        )
        return GroupEstimate(
            epsilon=group.epsilon,
            mean=mean_t,
            gamma_hat=gamma_t,
            n_reports=group.n_reports,
            n_normal_estimate=n_normal_estimate,
            emf=reconstruction,
        )

    def _transform_matches(
        self, emf: EMFResult, d_in: int, d_out: int, side: str
    ) -> bool:
        """Whether an existing reconstruction used this group's exact transform."""
        transform = emf.transform
        reference = self.config.reference_mean
        return (
            transform.input_grid.n_buckets == d_in
            and transform.output_grid.n_buckets == d_out
            and transform.side == side
            and (reference is None or transform.reference_mean == float(reference))
            and transform.poison_domain == self.poison_domain()
        )

    def _bucket_counts(self, n_reports: int, epsilon: float) -> tuple[int, int]:
        d_in, d_out = default_bucket_counts(max(1, n_reports), epsilon)
        if self.config.n_input_buckets is not None:
            d_in = self.config.n_input_buckets
        if self.config.n_output_buckets is not None:
            d_out = self.config.n_output_buckets
        return d_in, d_out

    # ------------------------------------------------------------------
    # end to end
    # ------------------------------------------------------------------
    def run(
        self,
        normal_values: np.ndarray,
        attack: Attack | None = None,
        n_byzantine: int = 0,
        rng: RngLike = None,
    ) -> DAPResult:
        """Simulate one full DAP round (client + collector)."""
        groups = self.collect(normal_values, attack, n_byzantine, rng)
        result = self.aggregate(groups)
        result.skipped_reports = self.contribution_summary(
            int(np.asarray(normal_values).size) + int(n_byzantine)
        )
        return result

    def run_stream(
        self,
        value_chunks: Iterable[np.ndarray],
        n_normal: int,
        attack: Attack | None = None,
        n_byzantine: int = 0,
        rng: RngLike = None,
    ) -> DAPResult:
        """One full DAP round over a chunked value stream (bounded memory)."""
        accumulators = self.collect_stream(
            value_chunks, n_normal, attack, n_byzantine, rng=rng
        )
        result = self.aggregate_accumulated(accumulators)
        result.skipped_reports = self.contribution_summary(
            int(n_normal) + int(n_byzantine)
        )
        return result


# ----------------------------------------------------------------------
# shard client (module-level, so shard tasks pickle cleanly into pools)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class _DAPClient:
    """DAP's client stage, for every collection path and the shard worker.

    Ships the config and the attack, never the protocol: each call rebuilds
    the ladder's mechanisms (cheap next to a block of users).  A group the
    contribution cap silences encodes and poisons into empty blocks."""

    config: DAPConfig
    attack: Attack

    @property
    def plan(self) -> ProtocolPlan:
        return self.config.protocol_plan

    def _group(self, group_index: int) -> Tuple[DAPProtocol, float, int]:
        protocol = DAPProtocol(self.config)
        epsilon = self.config.budget_ladder[group_index]
        return protocol, epsilon, protocol._reports_per_user(epsilon)

    def expected_reports(self, group_index: int, n_normal: int, n_byz: int) -> int:
        repeats = self._group(group_index)[2]
        return n_normal * repeats + self.attack.n_poison_reports(n_byz * repeats)

    def new_accumulator(self, piece: ShardSlice) -> GroupAccumulator:
        protocol, epsilon, _ = self._group(piece.group_index)
        # sized from the whole group's report count, like the merge base
        total = self.expected_reports(
            piece.group_index, piece.group_normal, piece.group_byzantine
        )
        return GroupAccumulator(
            epsilon,
            protocol.group_output_grid(epsilon, max(1, total)),
            n_expected_reports=self.expected_reports(
                piece.group_index, piece.n_normal, piece.n_byzantine
            ),
            n_users=piece.n_users,
        )

    def encode(self, group_index: int, values: np.ndarray, rng: RngLike) -> np.ndarray:
        protocol, epsilon, repeats = self._group(group_index)
        with stage("collect.sample"):
            return protocol.mechanism_for(epsilon).perturb(
                np.repeat(values, repeats), rng
            )

    def poison(self, group_index: int, n_users: int, rng: RngLike) -> np.ndarray:
        protocol, epsilon, repeats = self._group(group_index)
        view = protocol.adversary_mechanism(epsilon)
        with stage("collect.poison"):
            return self.attack.poison_reports(
                n_users * repeats, view, protocol._reference_mean(view), rng
            ).reports


__all__ = [
    "DAPConfig",
    "DAPProtocol",
    "DAPResult",
    "GroupCollection",
    "GroupEstimate",
]
