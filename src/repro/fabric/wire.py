"""The fabric's versioned wire format.

Everything that crosses a fabric connection is JSON built from the
``to_dict``/``from_dict`` pairs the simulation dataclasses get from
:class:`~repro.common.codec.Codec` — :class:`~repro.sim.api.RunRequest`
travels whole (program, warm set, machine, limits), outcomes travel as
tagged :class:`~repro.sim.api.RunMetrics` / :class:`~repro.sim.api.RunFailure`
payloads, and events are :class:`~repro.sim.events.RunEvent` dicts.

``WIRE_SCHEMA_VERSION`` stamps every envelope.  The rule:

* every change to a serialized field set (a field added, removed or
  renamed) bumps the version — ``tests/sim/test_wire_pin.py``
  fails when a field set or byte pin moves without its bump, so a
  drive-by field rename cannot silently fork the protocol;
* readers still ignore keys they do not know, so an older stamp decodes;
* a reader refuses a *newer* stamp than its own.
"""

from __future__ import annotations

from repro.common.durable import payload_crc32 as payload_crc32  # artifact checksum
from repro.sim.api import RunFailure, RunMetrics, RunOutcome

#: Bump on every serialized field-set change (added fields included) and
#: on changed endpoint semantics; the wire-pin test enforces the former.
#: v2: ExecutionPolicy gained the ``replay`` field (record-once/replay-many
#: execution backend); old decoders default it to False.
#: v3: the chaos-hardening release — completion envelopes grew idempotency
#: ``token`` fields (a v3 scheduler replays the recorded decision for a
#: duplicated delivery, which a v2 peer would re-apply), sweep submissions
#: carry a submission ``token``, artifact payloads carry a ``crc32``
#: checksum, ``ExecutionPolicy`` gained the ``transport`` retry/breaker
#: policy, and the scheduler serves ``/v1/health`` and 429 + Retry-After
#: admission control.
WIRE_SCHEMA_VERSION = 3

#: Cell lifecycle states as the scheduler reports them.
CELL_PENDING = "pending"
CELL_LEASED = "leased"
CELL_DONE = "done"
CELL_STATES = frozenset({CELL_PENDING, CELL_LEASED, CELL_DONE})


class WireError(ValueError):
    """A payload that cannot be decoded under this wire schema."""


def check_schema(payload: dict, *, what: str = "payload") -> None:
    """Reject payloads stamped with a newer wire schema than ours.

    Missing stamps are accepted (same-version peers omit none, but a
    hand-built test payload may), and older stamps are accepted because
    readers ignore keys they do not know.
    """
    schema = payload.get("schema", WIRE_SCHEMA_VERSION)
    if not isinstance(schema, int) or schema > WIRE_SCHEMA_VERSION:
        raise WireError(
            f"{what} carries wire schema {schema!r}, newer than this "
            f"peer's v{WIRE_SCHEMA_VERSION}; upgrade this peer"
        )


def envelope(**fields: object) -> dict[str, object]:
    """A wire message: the given fields plus the schema stamp."""
    payload: dict[str, object] = {"schema": WIRE_SCHEMA_VERSION}
    payload.update(fields)
    return payload


def encode_outcome(outcome: RunOutcome) -> dict[str, object]:
    """Tagged wire form of a terminal outcome (the journal's convention:
    ``kind`` is ``"metrics"`` or ``"failure"``, ``payload`` the dict)."""
    if isinstance(outcome, RunFailure):
        return {"kind": "failure", "payload": outcome.to_dict()}
    return {"kind": "metrics", "payload": outcome.to_dict()}


def decode_outcome(record: dict) -> RunOutcome:
    """Inverse of :func:`encode_outcome`."""
    kind = record.get("kind")
    if kind == "metrics":
        return RunMetrics.from_dict(record["payload"])
    if kind == "failure":
        return RunFailure.from_dict(record["payload"])
    raise WireError(f"unknown outcome kind {kind!r}")
