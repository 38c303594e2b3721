"""Run-lifecycle events and observers.

The sweep engine narrates every run through a stream of :class:`RunEvent`
records — ``queued`` when a request enters a batch, ``cache_hit`` when the
on-disk cache already holds its result, ``started`` when it is handed to a
worker, and ``finished``/``failed`` when it completes (with wall time and,
on success, committed cycles).  Observers are plain callables taking one
event; this replaces the ad-hoc ``progress`` callback the pre-1.1 harness
took, and feeds both the terminal progress line and a machine-readable
JSONL event log from the same stream.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, TextIO, runtime_checkable

from repro.common.codec import Codec
from repro.common.durable import JsonlLog

#: Version stamp for serialized events.  Bump only on *incompatible*
#: changes (renamed/retyped fields); purely additive fields keep the
#: version — :meth:`RunEvent.from_dict` ignores unknown keys, so old
#: readers parse new events and vice versa, so an event log stays readable
#: by a release on either side of the one that wrote it.
EVENT_SCHEMA_VERSION = 1

#: The lifecycle stages, in the order a single run can traverse them.
#: ``queued → (cache_hit | cancelled | started → [timed_out → retrying →
#: started …] → (finished | failed | cancelled))``.  ``timed_out`` marks a
#: wall-clock kill and ``retrying`` a scheduled re-execution; both are
#: informational — the run still ends in exactly one terminal event.
QUEUED = "queued"
CACHE_HIT = "cache_hit"
STARTED = "started"
FINISHED = "finished"
FAILED = "failed"
TIMED_OUT = "timed_out"
RETRYING = "retrying"
CANCELLED = "cancelled"

#: Events that terminate a run (exactly one is emitted per request).
TERMINAL_EVENTS = frozenset({CACHE_HIT, FINISHED, FAILED, CANCELLED})


@dataclass(frozen=True)
class RunEvent(Codec):
    """One lifecycle event of one (workload, config, attack model) run.

    ``index`` is the request's position in its batch — results keep batch
    order, so the index ties out-of-order completion events back to their
    slot.  ``model`` is the attack model's string value (``"spectre"`` /
    ``"futuristic"``) so events serialize without enum baggage.
    """

    kind: str
    index: int
    workload: str
    config: str
    model: str
    wall_time: float | None = None
    cycles: int | None = None
    instructions: int | None = None
    error: str | None = None
    #: ``RunFailure.kind`` taxonomy value on ``failed``/``timed_out``/
    #: ``retrying``/``cancelled`` events.
    failure_kind: str | None = None
    #: 1-based execution attempt, present once a cell has been retried.
    attempt: int | None = None

    def to_dict(self) -> dict[str, object]:
        """JSON-ready dict; ``None`` fields are dropped.  Includes a
        ``schema`` stamp (:data:`EVENT_SCHEMA_VERSION`) so wire consumers
        can detect incompatible producers."""
        payload: dict[str, object] = {"schema": EVENT_SCHEMA_VERSION}
        payload.update((k, v) for k, v in super().to_dict().items() if v is not None)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunEvent":
        """Inverse of :meth:`to_dict`, built for forward compatibility.

        Unknown keys are ignored — the ``seq``/``ts`` bookkeeping keys
        :class:`JsonlEventLog` adds, and any fields a *newer* producer
        grew — so readers keep working across additive schema evolution.
        An explicit ``schema`` stamp newer than ours is the one thing we
        refuse: field meanings may have changed incompatibly.
        """
        schema = payload.get("schema", EVENT_SCHEMA_VERSION)
        if schema > EVENT_SCHEMA_VERSION:
            raise ValueError(
                f"event schema v{schema} is newer than this reader "
                f"(v{EVENT_SCHEMA_VERSION}); upgrade the consumer"
            )
        return super().from_dict(payload)


#: Anything callable with a single event is an observer.
EventObserver = Callable[[RunEvent], None]


@runtime_checkable
class ClosableObserver(Protocol):
    """Observers holding resources (files) additionally expose ``close``."""

    def __call__(self, event: RunEvent) -> None: ...

    def close(self) -> None: ...


class ProgressLine:
    """Terminal progress: one carriage-returned line updated per completion.

    Counts ``queued`` events to learn the batch size, then rewrites the line
    on every terminal event, tagging cache hits and failures.  Writes to
    stderr by default so piped stdout stays machine-readable.
    """

    _TAGS = {
        CACHE_HIT: "cached",
        FINISHED: "ok",
        FAILED: "FAILED",
        CANCELLED: "cancel",
    }

    def __init__(self, stream: TextIO | None = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.total = 0
        self.done = 0
        self.failures = 0
        self.cache_hits = 0
        self.cancelled = 0
        self.retries = 0
        self._started = time.time()

    def __call__(self, event: RunEvent) -> None:
        if event.kind == QUEUED:
            self.total += 1
            return
        if event.kind == RETRYING:
            self.retries += 1
            return
        if event.kind not in TERMINAL_EVENTS:
            return
        self.done += 1
        if event.kind == FAILED:
            self.failures += 1
        elif event.kind == CACHE_HIT:
            self.cache_hits += 1
        elif event.kind == CANCELLED:
            self.cancelled += 1
        elapsed = time.time() - self._started
        self.stream.write(
            f"\r[{self.done:4d}/{self.total}] {elapsed:6.0f}s  "
            f"{event.model:10s} {event.workload:18s} {event.config:12s} "
            f"{self._TAGS[event.kind]:6s}"
        )
        if self.done >= self.total:
            tallies = [
                text
                for count, text in (
                    (self.cache_hits, f"{self.cache_hits} cached"),
                    (self.failures, f"{self.failures} failed"),
                    (self.cancelled, f"{self.cancelled} cancelled"),
                    (self.retries, f"{self.retries} retries"),
                )
                if count
            ]
            self.stream.write(f"\n({', '.join(tallies)})\n" if tallies else "\n")
        self.stream.flush()


class JsonlEventLog:
    """Machine-readable event log: one JSON object per line.

    Each record is the event's fields plus a monotonically increasing
    ``seq`` and a wall-clock ``ts``, e.g.::

        {"config": "Hybrid", "cycles": 81234, "index": 3, "kind": "finished",
         "model": "spectre", "seq": 9, "ts": 1754400000.25,
         "wall_time": 1.93, "workload": "mcf_like"}

    The conventional file suffix is ``.events.jsonl`` (gitignored).

    The output file is a :class:`~repro.common.durable.JsonlLog` replaced
    on the first event, so constructing a log and then crashing (or sweeping
    an empty batch) neither truncates an existing file nor leaves an empty
    one behind.  ``close()`` is idempotent and permanently seals the log:
    construction-to-close with no events is a no-op on the filesystem.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._log = JsonlLog(self.path)
        self._closed = False
        self._seq = 0

    def __call__(self, event: RunEvent) -> None:
        if self._closed:
            return
        if self._seq == 0:
            self.path.unlink(missing_ok=True)
        record: dict[str, object] = {"seq": self._seq, "ts": round(time.time(), 6)}
        record.update(event.to_dict())
        self._seq += 1
        self._log.append(record)

    def close(self) -> None:
        self._closed = True
        self._log.close()

    def __enter__(self) -> "JsonlEventLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def read_events(path: str | Path) -> list[RunEvent]:
    """Parse a :class:`JsonlEventLog` file back into events, preserving file
    order — the round-trip inverse of the log (torn tail dropped)."""
    return [RunEvent.from_dict(record) for record in JsonlLog(path).read()]
