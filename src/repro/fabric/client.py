"""The session-side fabric client.

:class:`FabricClient` turns a batch of :class:`~repro.sim.api.RunRequest`
into a sweep submission, follows the sweep to completion, and hands back
outcomes in batch order — the same contract as
:meth:`repro.sim.engine.SweepEngine.run`, which is what lets
``Session(execution=ExecutionPolicy(fabric=...))`` swap the engine out
from under ``sweep()`` without callers noticing.

While waiting, the client polls two endpoints with different trust:

* ``GET /v1/sweeps/<id>/events`` is **best-effort narration** — each new
  record is replayed into the session's observer pipeline (progress lines,
  event logs) via the ``emit`` callback.  Delivery is at-least-once: after
  a scheduler restart the regenerated stream may repeat, so ``queued`` and
  terminal events are deduplicated per batch index before emission.
* ``GET /v1/sweeps/<id>`` is **authoritative** — completion is decided by
  status counts, never by events, and the final outcomes are fetched with
  ``?outcomes=1`` in one shot.

Scheduler unreachability mid-sweep (a crash/restart window) is not an
error: the sweep lives in the scheduler's durable queue, so the client
just keeps polling until ``give_up_after`` seconds of continuous silence.
"""

from __future__ import annotations

import time
import uuid
from typing import Callable, Sequence

from repro.fabric.transport import (
    FabricError,
    RetryingTransport,
    TransportPolicy,
)
from repro.fabric.wire import decode_outcome, envelope
from repro.sim.api import RunOutcome, RunRequest, _rebrand
from repro.sim.events import QUEUED, TERMINAL_EVENTS, RunEvent

#: Default continuous-unreachability budget before a sweep is abandoned.
DEFAULT_GIVE_UP_AFTER = 300.0


class FabricClient:
    """Submit batches to a fabric scheduler and await their outcomes."""

    def __init__(
        self,
        url: str,
        *,
        execution=None,
        poll_interval: float = 0.2,
        request_timeout: float = 10.0,
        give_up_after: float = DEFAULT_GIVE_UP_AFTER,
        transport_policy: TransportPolicy | None = None,
    ) -> None:
        if transport_policy is None:
            transport_policy = (
                getattr(execution, "transport", None) or TransportPolicy()
            )
        self.transport_policy = transport_policy
        self.transport = RetryingTransport(
            url, timeout=request_timeout, policy=transport_policy
        )
        self.execution = execution
        self.poll_interval = poll_interval
        self.give_up_after = give_up_after
        self._closed = False

    def close(self) -> None:
        """Idempotent; connections are per-request, so this only marks the
        client unusable for symmetry with :meth:`Session.close`."""
        self._closed = True

    # ------------------------------------------------------------ submission

    def submit(self, requests: Sequence[RunRequest]) -> dict:
        """``POST /v1/sweeps``; returns the scheduler's reply (sweep id,
        per-cell keys, total).

        Each submission carries a fresh idempotency token, which makes the
        POST safe to retry through a lost response: the scheduler resolves
        the re-send to the sweep the first delivery created instead of
        enqueueing a twin batch.
        """
        execution = (
            self.execution.to_dict() if self.execution is not None else None
        )
        payload = envelope(
            requests=[request.to_dict() for request in requests],
            execution=execution,
            token=uuid.uuid4().hex,
        )
        return self.transport.post_json("/v1/sweeps", payload, idempotent=True)

    # -------------------------------------------------------------- the wait

    def run_many(
        self,
        requests: Sequence[RunRequest],
        *,
        emit: Callable[[RunEvent], None] | None = None,
    ) -> list[RunOutcome]:
        """Submit ``requests`` and block until every cell settles.

        ``emit`` receives replayed scheduler events (already deduplicated);
        pass :meth:`SweepEngine.emit_event` to feed the session's observers.
        """
        if self._closed:
            raise FabricError("FabricClient is closed")
        requests = list(requests)
        if not requests:
            return []
        reply = self.submit(requests)
        sweep_id = reply["sweep_id"]
        self._follow(sweep_id, emit)
        status = self._status(sweep_id, outcomes=True)
        outcomes = [decode_outcome(o) for o in status["outcomes"]]
        return [
            _rebrand(outcome, request) for request, outcome in zip(requests, outcomes)
        ]

    def _follow(self, sweep_id: str, emit) -> None:
        since = 0
        emitted_once: set[tuple[str, int]] = set()
        last_contact = time.monotonic()
        while True:
            try:
                if emit is not None:
                    since = self._drain_events(sweep_id, since, emit, emitted_once)
                status = self._status(sweep_id)
            except FabricError:
                if time.monotonic() - last_contact >= self.give_up_after:
                    raise FabricError(
                        f"scheduler unreachable for {self.give_up_after:g}s "
                        f"while waiting on {sweep_id}"
                    ) from None
                time.sleep(self.poll_interval)
                continue
            last_contact = time.monotonic()
            if status["complete"]:
                if emit is not None:
                    # Pick up the terminal events the final poll may have won.
                    self._drain_events(sweep_id, since, emit, emitted_once)
                return
            time.sleep(self.poll_interval)

    def _drain_events(
        self,
        sweep_id: str,
        since: int,
        emit,
        emitted_once: set[tuple[str, int]],
    ) -> int:
        records = self.transport.get_lines(
            f"/v1/sweeps/{sweep_id}/events?since={since}"
        )
        for record in records:
            since = int(record["seq"]) + 1
            kind = record.get("kind", "")
            # At-least-once wire delivery, exactly-once observer semantics
            # for the events observers *count*: each index is queued once
            # and terminates once, no matter how often a restarted
            # scheduler re-narrates history.
            if kind == QUEUED or kind in TERMINAL_EVENTS:
                dedup = (
                    (QUEUED, record["index"])
                    if kind == QUEUED
                    else ("terminal", record["index"])
                )
                if dedup in emitted_once:
                    continue
                emitted_once.add(dedup)
            emit(RunEvent.from_dict(record))
        return since

    def _status(self, sweep_id: str, *, outcomes: bool = False) -> dict:
        suffix = "?outcomes=1" if outcomes else ""
        return self.transport.get_json(f"/v1/sweeps/{sweep_id}{suffix}")
