"""The protocol contract: which trust model a collection round runs under.

A :class:`ProtocolPlan` is the versioned contract the client → transport →
server pipeline lowers to.  It fixes three things:

* ``protocol`` — the trust model, an **identity** knob (it changes the
  distribution of what the server receives):

  - ``"local"`` — the classical local model.  Every report arrives tagged
    with its budget group, the transport is an identity pass-through, and
    the adversary sees the full per-group mechanism family.  This is
    bit-identical to the pre-pipeline collection paths.
  - ``"shuffle"`` — a shuffler sits between clients and server.  Reports
    lose sender→group linkage in transit (a seeded uniform permutation per
    delivery lane), the adversary can no longer aim poison at a specific
    budget group and must stay inside the *intersection* of all group
    output domains (see :mod:`repro.protocol.client`), and the server
    records a privacy-amplification ledger mapping each group's local
    epsilon to a central epsilon (:mod:`repro.protocol.amplification`).

* ``contribution_cap`` — the client gate: an upper bound on reports per
  user.  Reports beyond the cap are dropped deterministically before
  perturbation and counted into a ``skipped`` tally.  ``None`` disables
  the gate (the historical behaviour).

* ``shuffle_seed`` — an **execution detail**: it reseeds the shuffler's
  permutation lanes, which provably cannot change any accumulator
  statistic (the sufficient statistics are permutation-invariant), so it
  never enters scenario documents or fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the trust models a collection round can run under (identity axis)
PROTOCOL_NAMES = ("local", "shuffle")


def check_protocol(name: str) -> str:
    """Validate a protocol name, returning it unchanged.

    Raises
    ------
    KeyError
        If the name is not a registered protocol; the message lists every
        available name (mirrors :meth:`repro.registry.Registry.entry`).
    """
    if name not in PROTOCOL_NAMES:
        raise KeyError(
            f"unknown protocol {name!r}; available protocols: "
            f"{', '.join(PROTOCOL_NAMES)}"
        )
    return name


def check_contribution_cap(cap: int | None) -> int | None:
    """Validate a contribution cap (``None`` or a non-negative integer)."""
    if cap is None:
        return None
    cap = int(cap)
    if cap < 0:
        raise ValueError(f"contribution_cap must be >= 0, got {cap}")
    return cap


@dataclass(frozen=True, slots=True)
class ProtocolPlan:
    """The immutable contract one collection round is lowered to."""

    protocol: str = "local"
    contribution_cap: int | None = None
    shuffle_seed: int = 0

    def __post_init__(self) -> None:
        check_protocol(self.protocol)
        check_contribution_cap(self.contribution_cap)

    @property
    def is_shuffle(self) -> bool:
        return self.protocol == "shuffle"

    def effective_repeats(self, repeats: int) -> int:
        """Apply the client-side contribution cap to a per-user repeat count."""
        if self.contribution_cap is None:
            return int(repeats)
        return min(int(repeats), self.contribution_cap)


__all__ = [
    "PROTOCOL_NAMES",
    "ProtocolPlan",
    "check_contribution_cap",
    "check_protocol",
]
