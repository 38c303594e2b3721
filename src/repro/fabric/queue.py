"""The scheduler's durable cell queue.

A :class:`FabricQueue` generalizes the :class:`~repro.sim.cache.SweepJournal`
idea — an append-only JSONL log keyed by content-addressed cache key — into
a crash-recoverable job queue.  Four record kinds share the log::

    {"kind": "sweep",   "sweep_id": ..., "cells": [key, ...], "retry": {...},
     "timeout": ..., "schema": 1}
    {"kind": "cell",    "key": ..., "request": {...RunRequest...},
     "retry": {...RetryPolicy...}, "timeout": ..., "schema": 1}
    {"kind": "attempt", "key": ..., "attempts": n, "failure": {...}, "schema": 1}
    {"kind": "done",    "key": ..., "outcome": {"kind": ..., "payload": ...},
     "schema": 1}
    {"kind": "token",   "key": ..., "token": ..., "decision": ..., "schema": 1}

The log is a :class:`~repro.common.durable.JsonlLog`: every mutation
appends one flushed line, :meth:`load` drops a torn trailing line (a
``kill -9`` mid-write), and a corrupt or inapplicable record before the
tail raises instead of silently rewriting the queue's state.  **Leases
are deliberately not journalled**: a lease is a promise by a live worker,
and after a scheduler crash no such promise is trustworthy, so
non-``done`` cells simply reload as ``pending`` and get handed out again.
``done`` cells reload as done — the crash-restart acceptance test in
``tests/fabric`` asserts completed cells are never re-executed.

Failed attempts are journalled (``attempt`` records) so server-side retry
budgets survive restarts too: a cell that crashed twice before the crash
does not get a fresh budget after it.  ``token`` records make completion
delivery idempotent across duplicate network deliveries *and* restarts: a
completion carrying an already-seen token replays the recorded decision
without touching the cell again (see :meth:`complete`).

**Compaction** keeps the journal bounded: the append-only log grows with
every attempt, heartbeat-expiry, and duplicate delivery, but the live
state it encodes does not.  :meth:`compact` atomically rewrites the log
(fsynced temp file, then rename) as one snapshot — the minimal record set
that reloads to the current in-memory state — so a crash at any instant
leaves either the complete old journal or the complete new one.
``compact_every`` auto-compacts after that many appended records.

The queue itself is not thread-safe; the scheduler serializes access with
one lock.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.durable import JsonlLog
from repro.fabric.wire import (
    CELL_DONE,
    CELL_LEASED,
    CELL_PENDING,
    decode_outcome,
    encode_outcome,
    envelope,
)
from repro.sim.api import FAILURE_CRASH, RunFailure, RunOutcome
from repro.sim.engine import RetryPolicy


@dataclass
class Lease:
    """An in-memory (never journalled) claim on a cell by one worker."""

    worker: str
    deadline: float  # monotonic seconds


@dataclass
class CellRecord:
    """One unit of work: a request body plus its queue bookkeeping."""

    key: str
    request: dict
    retry: RetryPolicy
    timeout: float | None = None
    state: str = CELL_PENDING
    attempts: int = 0
    outcome: RunOutcome | None = None
    last_failure: RunFailure | None = None
    lease: Lease | None = None
    #: Idempotency-token → recorded decision, for duplicate completions.
    tokens: dict[str, str] = field(default_factory=dict)

    @property
    def done(self) -> bool:
        return self.state == CELL_DONE


@dataclass
class SweepRecord:
    """A submitted batch: ordered cell keys (duplicates allowed — two equal
    requests in one batch share a key and a result).  ``token`` is the
    submitter's idempotency token, so a duplicated submission resolves to
    this sweep instead of creating a twin."""

    sweep_id: str
    cells: list[str] = field(default_factory=list)
    token: str | None = None


def worker_lost_failure(cell: CellRecord, worker: str) -> RunFailure:
    """The synthetic failure recorded when a lease expires: the worker
    stopped heartbeating (crashed host, OOM-killed agent, network split),
    which is exactly the environmental-``crash`` case of the taxonomy."""
    request = cell.request
    return RunFailure(
        workload=request["workload"]["name"],
        config=request["config"]["name"],
        attack_model=_attack_model(request),
        error_type="WorkerLost",
        message=f"lease by worker {worker!r} expired without completion",
        kind=FAILURE_CRASH,
        attempts=cell.attempts,
    )


def _cell_record(cell: CellRecord) -> dict:
    return envelope(
        kind="cell",
        key=cell.key,
        request=cell.request,
        retry=cell.retry.to_dict(),
        timeout=cell.timeout,
    )


def _attempt_record(cell: CellRecord) -> dict:
    """The cell's attempt count and last failure, as one ``attempt``."""
    failure = cell.last_failure
    return envelope(
        kind="attempt",
        key=cell.key,
        attempts=cell.attempts,
        failure=failure.to_dict() if failure is not None else None,
    )


def _done_record(cell: CellRecord) -> dict:
    return envelope(kind="done", key=cell.key, outcome=encode_outcome(cell.outcome))


def _attack_model(request: dict):
    from repro.common.config import AttackModel

    return AttackModel(request["attack_model"])


class FabricQueue:
    """Durable, restart-safe queue of sweep cells (see module docstring).

    ``compact_every`` auto-compacts the journal after that many appended
    records (``None`` disables auto-compaction; :meth:`compact` can still
    be called explicitly).
    """

    def __init__(self, path: str | Path, *, compact_every: int | None = None) -> None:
        if compact_every is not None and compact_every < 1:
            raise ValueError(f"compact_every must be >= 1, got {compact_every}")
        self.path = Path(path)
        self.compact_every = compact_every
        self.cells: dict[str, CellRecord] = {}
        self.sweeps: dict[str, SweepRecord] = {}
        self.compactions = 0
        self._appends_since_compact = 0
        self._log = JsonlLog(self.path)

    # ------------------------------------------------------------- durability

    def load(self) -> int:
        """Replay the log; returns how many records were applied.

        Records are applied in append order, so the last ``done`` for a key
        wins and ``attempt`` counts accumulate.  Only a torn final line (a
        crash mid-write) is dropped; corruption anywhere else raises
        :class:`~repro.common.durable.CorruptLogError`.  Leased state is
        *not* restored — every non-done cell comes back ``pending``.
        """
        return self._log.replay(self._apply)

    def _apply(self, record: dict) -> None:
        kind = record["kind"]
        if kind == "cell":
            key = record["key"]
            if key not in self.cells:
                self.cells[key] = CellRecord(
                    key=key,
                    request=record["request"],
                    retry=RetryPolicy.from_dict(record["retry"]),
                    timeout=record.get("timeout"),
                )
        elif kind == "sweep":
            sweep = SweepRecord(
                record["sweep_id"], list(record["cells"]), token=record.get("token")
            )
            for key in sweep.cells:
                if key not in self.cells:
                    raise KeyError(f"sweep {sweep.sweep_id!r} names unknown cell {key!r}")
            self.sweeps[sweep.sweep_id] = sweep
        elif kind == "attempt":
            # Decode before mutating, so a rejected record changes nothing.
            cell = self.cells[record["key"]]
            attempts = int(record["attempts"])
            failure = record.get("failure")
            if failure is not None:
                cell.last_failure = RunFailure.from_dict(failure)
            cell.attempts = max(cell.attempts, attempts)
        elif kind == "done":
            cell = self.cells[record["key"]]
            outcome = decode_outcome(record["outcome"])
            cell.state = CELL_DONE
            cell.lease = None
            cell.outcome = outcome
        elif kind == "token":
            cell = self.cells[record["key"]]
            cell.tokens[record["token"]] = record["decision"]
        else:
            raise ValueError(f"unknown queue record kind {kind!r}")

    def _append(self, record: dict) -> None:
        self._log.append(record)
        self._appends_since_compact += 1
        if (
            self.compact_every is not None
            and self._appends_since_compact >= self.compact_every
        ):
            self.compact()

    def close(self) -> None:
        self._log.close()

    # ------------------------------------------------------------- compaction

    def snapshot_records(self) -> list[dict]:
        """The minimal record list that reloads to the current state:
        per cell its definition, one folded ``attempt`` (current count +
        last failure), its ``done`` outcome, and its seen tokens; then the
        sweep membership records.  Leases are in-memory promises and are
        deliberately not snapshotted (same rule as :meth:`load`)."""
        records: list[dict] = []
        for cell in self.cells.values():
            records.append(_cell_record(cell))
            if cell.attempts:
                records.append(_attempt_record(cell))
            if cell.done:
                records.append(_done_record(cell))
            for token, decision in cell.tokens.items():
                records.append(envelope(kind="token", key=cell.key, token=token, decision=decision))
        for sweep in self.sweeps.values():
            records.append(
                envelope(
                    kind="sweep",
                    sweep_id=sweep.sweep_id,
                    cells=sweep.cells,
                    token=sweep.token,
                )
            )
        return records

    def compact(self) -> int:
        """Atomically replace the journal with its snapshot; returns the
        number of records written."""
        records = self.snapshot_records()
        self._log.rewrite(records)
        self._appends_since_compact = 0
        self.compactions += 1
        return len(records)

    # ------------------------------------------------------------- submission

    def submit(
        self,
        sweep_id: str,
        cells: list[tuple[str, dict]],
        *,
        retry: RetryPolicy,
        timeout: float | None = None,
        token: str | None = None,
    ) -> SweepRecord:
        """Enqueue a sweep: journal its ordered key list and any cells not
        already known.  Cells whose key is already ``done`` stay done — the
        new sweep simply observes the settled outcome (dedup across sweeps
        is the artifact store working as intended).  ``token`` is the
        submitter's idempotency token, journalled with the sweep so
        duplicate submissions dedup across restarts too.
        """
        if sweep_id in self.sweeps:
            raise ValueError(f"sweep {sweep_id!r} already submitted")
        for key, request in cells:
            if key not in self.cells:
                cell = CellRecord(key=key, request=request, retry=retry, timeout=timeout)
                self.cells[key] = cell
                self._append(_cell_record(cell))
        sweep = SweepRecord(sweep_id, [key for key, _ in cells], token=token)
        self.sweeps[sweep_id] = sweep
        self._append(
            envelope(
                kind="sweep",
                sweep_id=sweep_id,
                cells=sweep.cells,
                retry=retry.to_dict(),
                timeout=timeout,
                token=token,
            )
        )
        return sweep

    def sweep_by_token(self, token: str) -> SweepRecord | None:
        """The sweep a submission token already created, if any."""
        for sweep in self.sweeps.values():
            if sweep.token is not None and sweep.token == token:
                return sweep
        return None

    # ---------------------------------------------------------------- leasing

    def claim(
        self, worker: str, *, lease_seconds: float, now: float
    ) -> CellRecord | None:
        """Lease the first pending cell to ``worker`` (FIFO by submission
        order, which preserves rough batch locality), or ``None`` if no
        cell is pending."""
        for cell in self.cells.values():
            if cell.state == CELL_PENDING:
                cell.state = CELL_LEASED
                cell.attempts += 1
                cell.lease = Lease(worker=worker, deadline=now + lease_seconds)
                return cell
        return None

    def heartbeat(
        self, key: str, worker: str, *, lease_seconds: float, now: float
    ) -> bool:
        """Renew ``worker``'s lease on ``key``; ``False`` if the lease is no
        longer theirs (expired and re-queued, or completed elsewhere)."""
        cell = self.cells.get(key)
        if cell is None or cell.lease is None or cell.lease.worker != worker:
            return False
        cell.lease.deadline = now + lease_seconds
        return True

    def expire_leases(self, *, now: float) -> list[CellRecord]:
        """Re-queue (or fail out) every cell whose lease deadline passed.

        Each expiry is journalled as a crash-kind ``attempt``; the cell's
        own retry policy then decides between ``pending`` again and a
        terminal ``WorkerLost`` failure.  Returns the affected cells.
        """
        expired = []
        for cell in self.cells.values():
            if (
                cell.state == CELL_LEASED
                and cell.lease is not None
                and cell.lease.deadline <= now
            ):
                failure = worker_lost_failure(cell, cell.lease.worker)
                cell.lease = None
                cell.last_failure = failure
                self._append(_attempt_record(cell))
                if cell.retry.should_retry(FAILURE_CRASH, cell.attempts):
                    cell.state = CELL_PENDING
                else:
                    self._settle(cell, failure)
                expired.append(cell)
        return expired

    # ------------------------------------------------------------- completion

    def complete(
        self, key: str, outcome: RunOutcome, *, token: str | None = None
    ) -> str:
        """Apply a worker-reported terminal outcome for ``key``.

        Returns the decision taken: ``"done"`` (outcome settled),
        ``"retry"`` (transient failure with budget left — cell re-queued),
        or ``"stale"`` (the cell already settled; duplicate completions are
        expected — the simulation is deterministic, so any completion is as
        good as any other, and at-least-once delivery is fine).

        ``token`` is the delivery's idempotency token: a completion whose
        token was already processed **replays the recorded decision**
        without touching the cell — a duplicated network delivery can
        never double-settle, double-count an attempt, or burn retry
        budget.  Tokens are journalled, so the guarantee holds across
        scheduler restarts too.
        """
        cell = self.cells.get(key)
        if cell is None:
            raise KeyError(f"unknown cell {key!r}")
        if token is not None and token in cell.tokens:
            return cell.tokens[token]
        if cell.done:
            return "stale"
        decision = "done"
        if isinstance(outcome, RunFailure):
            cell.last_failure = outcome
            self._append(_attempt_record(cell))
            if cell.retry.should_retry(outcome.kind, cell.attempts):
                cell.state = CELL_PENDING
                cell.lease = None
                decision = "retry"
        if decision == "done":
            self._settle(cell, outcome)
        if token is not None:
            cell.tokens[token] = decision
            self._append(envelope(kind="token", key=key, token=token, decision=decision))
        return decision

    def _settle(self, cell: CellRecord, outcome: RunOutcome) -> None:
        if isinstance(outcome, RunFailure) and outcome.attempts != cell.attempts:
            # The worker only knows its own attempt; the queue knows them all.
            outcome = dataclasses.replace(outcome, attempts=max(cell.attempts, 1))
        cell.state = CELL_DONE
        cell.lease = None
        cell.outcome = outcome
        self._append(_done_record(cell))

    # ----------------------------------------------------------------- status

    def sweep_outcomes(self, sweep_id: str) -> list[RunOutcome | None]:
        """Per-cell outcomes of a sweep in submission order (``None`` for
        cells still pending/leased)."""
        sweep = self.sweeps[sweep_id]
        return [self.cells[key].outcome for key in sweep.cells]

    def sweep_counts(self, sweep_id: str) -> dict[str, int]:
        sweep = self.sweeps[sweep_id]
        counts = {CELL_PENDING: 0, CELL_LEASED: 0, CELL_DONE: 0}
        for key in sweep.cells:
            counts[self.cells[key].state] += 1
        return counts

    def pending_count(self) -> int:
        return sum(1 for c in self.cells.values() if c.state == CELL_PENDING)
