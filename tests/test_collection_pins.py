"""Seeded pins for the collection paths the golden grid leaves open.

``tests/data/golden_local_protocol.json`` pins the in-memory k-RR and
sketch rounds, the 2-shard k-RR and DAP rounds and DAP's streaming path,
all under the local protocol.  This module pins the rest of the collection
surface, each case as one sha256 over the float hex of what the collector
keeps (counts, report totals, DAP report sums and head-counts), followed by
the caller's generator's next draw, so a change in how a path consumes the
caller's RNG shows up as well:

* k-RR and sketch ``collect`` (raw reports, in delivery order),
  ``collect_stream`` and ``collect_sharded`` at 1 and 3 shards with a small
  ``block_size``;
* DAP ``collect_sharded`` with more shards than seed blocks (empty shards);
* every case above under ``protocol="shuffle"`` as well as ``"local"``;
* a ``contribution_cap=0`` round on each route and each collection method.

``tests/data/collection_pins.json`` was written by running this module as a
script (``PYTHONPATH=src python -m tests.test_collection_pins``) on the tree
before the collection paths were folded into one shard worker; the test
recomputes every case and requires the same digests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.attacks import BiasedByzantineAttack
from repro.collect import chunk_array
from repro.core.dap import DAPConfig, DAPProtocol
from repro.core.frequency import FrequencyDAP
from repro.core.sketch_frequency import SketchFrequencyDAP

PINS_PATH = Path(__file__).parent / "data" / "collection_pins.json"

_SEED = 20261017
_PROTOCOLS = ("local", "shuffle")
_TARGETS = (0, 3)
_N_BYZANTINE = 70
_BLOCK = 32


def _digest(*arrays) -> str:
    """sha256 over the float hex of every value, array by array."""
    text = "|".join(
        ",".join(float(v).hex() for v in np.asarray(array, dtype=float).ravel())
        for array in arrays
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _categorical_pins(route: str, make) -> dict:
    categories = np.random.default_rng([_SEED, 1]).integers(0, 16, size=300)
    pins: dict[str, str] = {}
    for protocol in _PROTOCOLS:
        for cap in (None, 0):
            dap = make(protocol, cap)
            prefix = f"{route}/{protocol}" + ("/cap0" if cap == 0 else "")

            rng = np.random.default_rng([_SEED, 2])
            reports = dap.collect(categories, _TARGETS, _N_BYZANTINE, rng=rng)
            pins[f"{prefix}/collect"] = _digest(
                reports, [len(reports)], rng.integers(2**62, size=1)
            )

            rng = np.random.default_rng([_SEED, 3])
            accumulator = dap.collect_stream(
                chunk_array(categories, 37),
                _TARGETS,
                _N_BYZANTINE,
                rng=rng,
                poison_chunk_size=25,
            )
            pins[f"{prefix}/stream"] = _digest(
                accumulator.counts,
                [accumulator.n_reports],
                rng.integers(2**62, size=1),
            )

            for n_shards in (1, 3):
                rng = np.random.default_rng([_SEED, 4])
                accumulator = dap.collect_sharded(
                    categories,
                    _TARGETS,
                    _N_BYZANTINE,
                    rng=rng,
                    n_shards=n_shards,
                    block_size=_BLOCK,
                )
                pins[f"{prefix}/sharded/{n_shards}"] = _digest(
                    accumulator.counts,
                    [accumulator.n_reports],
                    rng.integers(2**62, size=1),
                )
    return pins


def _krr(protocol: str, cap):
    return FrequencyDAP(1.0, 16, protocol=protocol, contribution_cap=cap)


def _sketch(protocol: str, cap):
    return SketchFrequencyDAP(
        1.0,
        16,
        sketch_rows=2,
        sketch_width=8,
        protocol=protocol,
        contribution_cap=cap,
    )


def _group_digest(accumulators, rng) -> str:
    stats = [accumulator.stats() for accumulator in accumulators]
    return _digest(
        *[
            np.concatenate(
                [
                    [s.epsilon, s.n_users, s.n_reports, s.report_sum],
                    s.output_counts,
                ]
            )
            for s in stats
        ],
        rng.integers(2**62, size=1),
    )


def _dap_pins() -> dict:
    values = np.random.default_rng([_SEED, 5]).uniform(-1.0, 1.0, size=230)
    attack = BiasedByzantineAttack()
    pins: dict[str, str] = {}
    for protocol in _PROTOCOLS:
        for cap in (None, 0):
            protocol_ = DAPProtocol(
                DAPConfig(epsilon=1.0, protocol=protocol, contribution_cap=cap)
            )
            prefix = f"dap/{protocol}" + ("/cap0" if cap == 0 else "")
            # 300 users over 5 budget groups at 64 users per block: at most
            # two blocks per group, so 7 shards leave most shards empty
            rng = np.random.default_rng([_SEED, 6])
            accumulators = protocol_.collect_sharded(
                values, attack, _N_BYZANTINE, rng=rng, n_shards=7, block_size=64
            )
            pins[f"{prefix}/sharded/7"] = _group_digest(accumulators, rng)
            if cap == 0:
                rng = np.random.default_rng([_SEED, 7])
                accumulators = protocol_.collect_stream(
                    chunk_array(values, 41), values.size, attack, _N_BYZANTINE, rng=rng
                )
                pins[f"{prefix}/stream"] = _group_digest(accumulators, rng)
    return pins


def compute_pins() -> dict:
    return {
        **_categorical_pins("krr", _krr),
        **_categorical_pins("sketch", _sketch),
        **_dap_pins(),
    }


@pytest.fixture(scope="module")
def committed() -> dict:
    with PINS_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def fresh() -> dict:
    return compute_pins()


def test_pins_cover_the_same_cases(committed, fresh):
    assert sorted(fresh) == sorted(committed)


@pytest.mark.parametrize(
    "route", ["krr/local", "krr/shuffle", "sketch/local", "sketch/shuffle", "dap/"]
)
def test_collection_paths_match_pins(committed, fresh, route):
    keys = [key for key in committed if key.startswith(route)]
    assert keys
    drifted = [key for key in keys if fresh.get(key) != committed[key]]
    assert not drifted, f"collection output drifted: {drifted}"


if __name__ == "__main__":
    PINS_PATH.parent.mkdir(parents=True, exist_ok=True)
    PINS_PATH.write_text(json.dumps(compute_pins(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")
