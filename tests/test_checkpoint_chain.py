"""Property tests: chained accumulator snapshots == one-shot streaming.

The windowed service's resume guarantee reduces to one invariant: for every
accumulator type, *checkpointing* (``state_dict`` through real JSON),
*restoring* (``from_state``) and *continuing* — any number of times, at any
window boundaries — must be bit-identical to accumulating the whole stream
in one process.  Hypothesis drives the boundaries: arbitrary value streams
cut at arbitrary points, snapshot/restored between every pair of chunks.

Covered: all four accumulator types (``ExactSum``, ``HistogramAccumulator``,
``CategoryCountAccumulator``, ``GroupAccumulator``) and the k-RR frequency
path (perturbed categorical reports, counts as the sufficient statistic,
de-biased frequency estimates off the restored counts).  The checkpoint
file itself holds exactly ``json.dumps`` of the checksum-stamped payload.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collect import (
    CategoryCountAccumulator,
    ExactSum,
    GroupAccumulator,
    HistogramAccumulator,
)
from repro.ldp import KRandomizedResponse
from repro.service import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    payload_checksum,
    write_checkpoint,
)
from repro.utils.discretization import BucketGrid

COMMON_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def json_round_trip(state):
    """A checkpoint's actual serialisation boundary."""
    return json.loads(json.dumps(state))


def cut_points(draw, n, max_cuts=6):
    """Sorted window boundaries inside ``[0, n]`` (possibly empty/degenerate)."""
    k = draw(st.integers(0, max_cuts))
    cuts = draw(
        st.lists(st.integers(0, n), min_size=k, max_size=k)
    )
    return sorted(cuts)


def windows(values, cuts):
    """Split ``values`` at ``cuts`` — empty windows included on purpose."""
    chunks, start = [], 0
    for cut in list(cuts) + [len(values)]:
        chunks.append(values[start:cut])
        start = cut
    return chunks


values_and_cuts = st.integers(0, 2_000_000_000).flatmap(
    lambda seed: st.integers(0, 120).flatmap(
        lambda n: st.builds(
            lambda cuts: (seed, n, cuts),
            st.lists(st.integers(0, n), min_size=0, max_size=6).map(sorted),
        )
    )
)


class TestChainedSnapshotsMatchOneShot:
    @given(params=values_and_cuts)
    @settings(max_examples=60, **COMMON_SETTINGS)
    def test_exact_sum(self, params):
        seed, n, cuts = params
        values = np.random.default_rng(seed).uniform(-1e6, 1e6, size=n)
        one_shot = ExactSum().add(values)
        chained = ExactSum()
        for chunk in windows(values, cuts):
            chained = ExactSum.from_state(json_round_trip(chained.state_dict()))
            chained.add(chunk)
        assert chained.value == one_shot.value
        assert (
            json_round_trip(chained.state_dict())
            == json_round_trip(one_shot.state_dict())
        )

    @given(params=values_and_cuts, n_buckets=st.integers(1, 32))
    @settings(max_examples=60, **COMMON_SETTINGS)
    def test_histogram(self, params, n_buckets):
        seed, n, cuts = params
        grid = BucketGrid(-1.0, 1.0, n_buckets)
        values = np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)
        one_shot = HistogramAccumulator(grid, track_sum=True).update(values)
        chained = HistogramAccumulator(grid, track_sum=True)
        for chunk in windows(values, cuts):
            chained = HistogramAccumulator.from_state(
                json_round_trip(chained.state_dict())
            )
            chained.update(chunk)
        assert np.array_equal(chained.counts, one_shot.counts)
        assert chained.n_values == one_shot.n_values
        assert chained.sum == one_shot.sum

    @given(params=values_and_cuts, n_categories=st.integers(1, 16))
    @settings(max_examples=60, **COMMON_SETTINGS)
    def test_category_counts(self, params, n_categories):
        seed, n, cuts = params
        reports = np.random.default_rng(seed).integers(0, n_categories, size=n)
        one_shot = CategoryCountAccumulator(n_categories).update(reports)
        chained = CategoryCountAccumulator(n_categories)
        for chunk in windows(reports, cuts):
            chained = CategoryCountAccumulator.from_state(
                json_round_trip(chained.state_dict())
            )
            chained.update(chunk)
        assert np.array_equal(chained.counts, one_shot.counts)

    @given(params=values_and_cuts, n_buckets=st.integers(1, 32))
    @settings(max_examples=60, **COMMON_SETTINGS)
    def test_group_accumulator(self, params, n_buckets):
        seed, n, cuts = params
        grid = BucketGrid(-2.0, 2.0, n_buckets)
        reports = np.random.default_rng(seed).uniform(-2.0, 2.0, size=n)
        one_shot = GroupAccumulator(0.5, grid, n_expected_reports=None)
        one_shot.update(reports)
        chained = GroupAccumulator(0.5, grid, n_expected_reports=None)
        for chunk in windows(reports, cuts):
            chained = GroupAccumulator.from_state(
                json_round_trip(chained.state_dict())
            )
            chained.update(chunk)
        assert (
            json_round_trip(chained.state_dict())
            == json_round_trip(one_shot.state_dict())
        )
        ours, theirs = chained.stats(), one_shot.stats()
        assert ours.n_reports == theirs.n_reports
        assert ours.report_sum == theirs.report_sum
        assert np.array_equal(ours.output_counts, theirs.output_counts)

    @given(
        params=values_and_cuts,
        n_categories=st.integers(2, 12),
        epsilon=st.floats(0.2, 3.0),
    )
    @settings(max_examples=40, **COMMON_SETTINGS)
    def test_krr_frequency_path(self, params, n_categories, epsilon):
        """k-RR reports chained through snapshots give the exact sufficient
        statistic, and the de-biased frequency estimate computed from the
        restored counts is bit-identical to the one-shot estimator."""
        seed, n, cuts = params
        rng = np.random.default_rng(seed)
        mechanism = KRandomizedResponse(epsilon, n_categories)
        categories = rng.integers(0, n_categories, size=max(n, 1))
        reports = mechanism.perturb(categories, rng=rng)

        chained = CategoryCountAccumulator(n_categories)
        for chunk in windows(reports, cuts):
            chained = CategoryCountAccumulator.from_state(
                json_round_trip(chained.state_dict())
            )
            chained.update(chunk)
        assert np.array_equal(chained.counts_float(), mechanism.report_counts(reports))

        observed = chained.counts_float() / chained.n_reports
        from_counts = (observed - mechanism.q) / (mechanism.p - mechanism.q)
        assert np.array_equal(from_counts, mechanism.estimate_frequencies(reports))


@given(params=values_and_cuts, n_buckets=st.integers(1, 32))
@settings(max_examples=20, **COMMON_SETTINGS)
def test_checkpoint_file_is_json_dumps_of_stamped_payload(
    tmp_path_factory, params, n_buckets
):
    """The written bytes are ``json.dumps`` of the payload plus its checksum,
    and loading them gives the payload back."""
    seed, n, _ = params
    grid = BucketGrid(-2.0, 2.0, n_buckets)
    reports = np.random.default_rng(seed).uniform(-2.0, 2.0, size=n)
    accumulator = GroupAccumulator(0.5, grid, n_expected_reports=None)
    accumulator.update(reports)
    payload = {
        "version": CHECKPOINT_VERSION,
        "digest": "d\u00e9j\u00e0",
        "next_window": n,
        "cumulative": [accumulator.state_dict()],
        "windows": [{"estimate": float(reports.mean()) if n else None}],
        "detector": {"statistic": 1e-300, "threshold": -0.1},
    }
    path = tmp_path_factory.mktemp("checkpoint") / "c.json"
    write_checkpoint(str(path), payload)
    stamped = {**payload, "checksum": payload_checksum(payload)}
    assert path.read_bytes() == json.dumps(stamped).encode("utf-8")
    assert load_checkpoint(str(path)) == json.loads(json.dumps(payload))
