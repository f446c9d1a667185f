"""Seeded pins for the batched EM kernel, :func:`em_reconstruct_batch`.

Every case is one sha256 over the float hex of all five
:class:`~repro.ldp.ems.BatchEMResult` fields (weights, log-likelihoods,
iteration counts, converged and screened flags).  The grid crosses

* the tail shape: one-hot tails, padded one-hot tails (``tail_mask``),
  spread tails with ``S = 2`` and ``S = 4`` whose rows collide across
  columns (padded and not), and no tail at all (``n_tail == 0``);
* the stopping mode: tol only, ``gap_tol``, and ``gap_tol`` with an
  ``ll_floor`` that screens part of the batch;
* the batch size: ``H = 2`` (certified mode hands the batch straight to the
  straggler finisher, tol mode iterates jointly down to one straggler) and
  ``H = 6`` (the joint loop, with hypotheses leaving it one by one);
* full and partly zero observed counts,

plus a warm-started and an iteration-capped case per tail shape.

``tests/data/batch_em_pins.json`` was written by running this module as a
script (``PYTHONPATH=src python -m tests.test_batch_em_pins``) on the tree
before the tail kernels were vectorized; the test recomputes every case and
requires the same digests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.ldp.ems import em_reconstruct_batch

PINS_PATH = Path(__file__).parent / "data" / "batch_em_pins.json"

_SEED = 20261018
_D_OUT = 24
_N_DENSE = 5
_N_TAIL = 7
_TAILS = (
    "onehot",
    "onehot-padded",
    "spread2",
    "spread2-padded",
    "spread4",
    "spread4-padded",
    "empty",
)
_MODES = ("tol", "gap", "gap-floor")
_SIZES = (2, 6)
_COUNTS = ("full", "sparse")


def _digest(*arrays) -> str:
    """sha256 over the float hex of every value, array by array."""
    text = "|".join(
        ",".join(float(v).hex() for v in np.asarray(array, dtype=float).ravel())
        for array in arrays
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _problem(tail: str, n_hypotheses: int, counts_kind: str):
    """A seeded (dense, counts, tail_rows, tail_mask) problem."""
    rng = np.random.default_rng(
        [_SEED, _TAILS.index(tail), n_hypotheses, _COUNTS.index(counts_kind)]
    )
    dense = rng.dirichlet(np.ones(_D_OUT), size=_N_DENSE).T
    if tail == "empty":
        rows = np.zeros((n_hypotheses, 0), dtype=np.intp)
    elif tail.startswith("onehot"):
        rows = np.stack(
            [rng.choice(_D_OUT, size=_N_TAIL, replace=False) for _ in range(n_hypotheses)]
        )
    else:
        spread = int(tail[len("spread")])
        # rows drawn from a narrow band, distinct within a column: different
        # columns of one hypothesis share rows
        band = spread + 3
        rows = np.stack(
            [
                np.stack(
                    [rng.choice(band, size=spread, replace=False) for _ in range(_N_TAIL)]
                )
                + int(rng.integers(0, _D_OUT - band))
                for _ in range(n_hypotheses)
            ]
        )
    mask = None
    if tail.endswith("-padded"):
        mask = np.ones(rows.shape[:2], dtype=bool)
        for h in range(n_hypotheses):
            n_real = 1 + h % _N_TAIL
            mask[h, n_real:] = False
            rows[h, n_real:] = rows[h, 0]  # padding repeats a real row
    # observations from a mixture with poison mass on the first hypothesis'
    # tail rows, so the tails carry real weight
    signal = dense @ rng.dirichlet(np.ones(_N_DENSE))
    if rows.shape[1]:
        poison = np.zeros(_D_OUT)
        np.add.at(poison, rows[0].ravel(), 1.0)
        signal = 0.8 * signal + 0.2 * poison / poison.sum()
    counts = rng.multinomial(4_000, signal).astype(float)
    if counts_kind == "sparse":
        counts[rng.choice(_D_OUT, size=4, replace=False)] = 0.0
    return dense, counts, rows, mask


def _result_digest(batch) -> str:
    return _digest(
        batch.weights,
        batch.log_likelihoods,
        batch.n_iterations,
        batch.converged,
        batch.screened,
    )


def compute_pins() -> dict:
    pins: dict[str, str] = {}
    for tail in _TAILS:
        for n_hypotheses in _SIZES:
            for counts_kind in _COUNTS:
                dense, counts, rows, mask = _problem(tail, n_hypotheses, counts_kind)
                base = dict(tail_mask=mask, max_iter=3_000)
                reference = em_reconstruct_batch(dense, counts, rows, tol=1e-9, **base)
                floor = float(np.median(reference.log_likelihoods))
                runs = {
                    "tol": reference,
                    "gap": em_reconstruct_batch(
                        dense, counts, rows, tol=1e-9, gap_tol=1e-3, **base
                    ),
                    "gap-floor": em_reconstruct_batch(
                        dense,
                        counts,
                        rows,
                        tol=1e-9,
                        gap_tol=1e-3,
                        ll_floor=floor,
                        **base,
                    ),
                }
                for mode in _MODES:
                    key = f"{tail}/H{n_hypotheses}/{counts_kind}/{mode}"
                    pins[key] = _result_digest(runs[mode])
        # warm start and an iteration cap hit with several hypotheses active
        dense, counts, rows, mask = _problem(tail, 6, "full")
        rng = np.random.default_rng([_SEED, _TAILS.index(tail), 99])
        initial = rng.dirichlet(np.ones(_N_DENSE + rows.shape[1]), size=6)
        pins[f"{tail}/H6/full/warm"] = _result_digest(
            em_reconstruct_batch(
                dense, counts, rows, tail_mask=mask, initial=initial, tol=1e-9
            )
        )
        pins[f"{tail}/H6/full/capped"] = _result_digest(
            em_reconstruct_batch(
                dense, counts, rows, tail_mask=mask, tol=1e-12, max_iter=40
            )
        )
    return pins


@pytest.fixture(scope="module")
def committed() -> dict:
    with PINS_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def fresh() -> dict:
    return compute_pins()


def test_pins_cover_the_same_cases(committed, fresh):
    assert sorted(fresh) == sorted(committed)


@pytest.mark.parametrize("tail", _TAILS)
def test_batch_em_matches_pins(committed, fresh, tail):
    keys = [key for key in committed if key.startswith(f"{tail}/")]
    assert keys
    drifted = [key for key in keys if fresh.get(key) != committed[key]]
    assert not drifted, f"batched EM output drifted: {drifted}"


def test_grid_exercises_every_stopping_path():
    """The grid reaches screening, the finisher, the joint loop and the cap."""
    dense, counts, rows, mask = _problem("spread4-padded", 6, "sparse")
    reference = em_reconstruct_batch(dense, counts, rows, tail_mask=mask, tol=1e-9)
    floor = float(np.median(reference.log_likelihoods))
    screened = em_reconstruct_batch(
        dense, counts, rows, tail_mask=mask, tol=1e-9, gap_tol=1e-3, ll_floor=floor
    )
    assert screened.screened.any() and not screened.screened.all()
    capped = em_reconstruct_batch(
        dense, counts, rows, tail_mask=mask, tol=1e-12, max_iter=40
    )
    assert (capped.n_iterations == 40).sum() > 1
    assert not capped.converged.any()


if __name__ == "__main__":
    PINS_PATH.parent.mkdir(parents=True, exist_ok=True)
    PINS_PATH.write_text(json.dumps(compute_pins(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")
