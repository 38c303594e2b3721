"""Opt-in cycle-accurate pipeline trace recording.

A :class:`CycleTracer` is a :class:`~repro.pipeline.core.CoreObserver`:
it subscribes to a core's pipeline events (fetch, dispatch/rename, issue,
complete, commit, squash) and keeps one :class:`TraceRecord` per uop.
Tracing is disabled by default; with no observer attached the core pays
one check per event.

Two export formats, selectable independently:

* **JSONL** — one JSON object per finished uop (``kind: "uop"``) plus a
  final ``kind: "summary"`` record carrying the run's stall-attribution
  counters, whose values sum exactly to the non-committing cycles.  Records
  stream to disk through a bounded buffer (windowed flush), so arbitrarily
  long traced runs hold at most ``buffer_capacity`` finished records in
  memory.
* **Konata** — the Kanata log format understood by the Konata pipeline
  viewer (https://github.com/shioyadan/Konata): stages F (fetch), Ds
  (dispatch/rename), Is (issue/execute), Cm (complete-to-retire), with
  squashed uops ending in a flush.  Konata export needs the whole record
  set at once, so it is capped at ``konata_limit`` uops; longer runs are
  truncated (and say so in the trace summary) rather than exhausting
  memory.

Without any output path the tracer degrades to an in-memory ring buffer of
the most recent ``buffer_capacity`` finished records — useful for tests and
interactive inspection via :meth:`CycleTracer.records`.  Over those
records, :func:`render_timeline` draws a text pipeline diagram and
:func:`average_latency` gives the mean fetch-to-commit latency.

Like any observer, an attached tracer disables the core's event-driven
fast-forward: traced runs take the naive one-step-per-cycle loop.  Results
are bit-identical either way; only wall time differs.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from repro.pipeline.core import CoreObserver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.core import Core
    from repro.pipeline.uop import DynInst

#: Bump when the JSONL record layout changes incompatibly.
TRACE_SCHEMA = 1

#: Conventional file suffixes (both gitignored).
JSONL_SUFFIX = ".trace.jsonl"
KONATA_SUFFIX = ".konata"


@dataclass
class TraceRecord:
    """Milestone cycles of one dynamic instruction (-1 = never reached)."""

    seq: int
    pc: int
    op: str
    fetch: int = -1
    dispatch: int = -1
    issue: int = -1
    complete: int = -1
    commit: int = -1
    squash: int = -1
    oblivious: bool = False
    predicted_level: str | None = None
    delayed_cycles: int = 0

    @property
    def retired(self) -> bool:
        return self.commit >= 0

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {"kind": "uop"}
        payload.update(asdict(self))
        if self.predicted_level is None:
            del payload["predicted_level"]
        return payload


class CycleTracer(CoreObserver):
    """Records per-uop milestone cycles; exports JSONL and/or Konata.

    Attach with :meth:`attach` *before* ``core.run()`` and call
    :meth:`close` afterwards (``execute()`` does both when a
    :class:`~repro.sim.api.Instrumentation` requests tracing).
    """

    def __init__(
        self,
        jsonl_path: str | Path | None = None,
        konata_path: str | Path | None = None,
        *,
        buffer_capacity: int = 4096,
        konata_limit: int = 200_000,
    ) -> None:
        if buffer_capacity < 1:
            raise ValueError("buffer_capacity must be positive")
        self.jsonl_path = Path(jsonl_path) if jsonl_path is not None else None
        self.konata_path = Path(konata_path) if konata_path is not None else None
        self.buffer_capacity = buffer_capacity
        self.konata_limit = konata_limit
        self.core: "Core | None" = None
        self._live: dict[int, TraceRecord] = {}
        # With a JSONL sink the buffer is flushed when full; without one it
        # is a true ring buffer of the most recent finished records.
        self._done: deque[TraceRecord] = (
            deque() if self.jsonl_path is not None else deque(maxlen=buffer_capacity)
        )
        self._jsonl_fh: TextIO | None = (
            self.jsonl_path.open("w") if self.jsonl_path is not None else None
        )
        self._konata: list[TraceRecord] = []
        self._konata_truncated = 0
        self._recorded = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Core events (called from the pipeline's hot path)
    # ------------------------------------------------------------------ #

    def attach(self, core: "Core") -> "CycleTracer":
        """Subscribe to ``core``'s events (at most one tracer per core)."""
        if any(isinstance(o, CycleTracer) for o in core.observers):
            raise RuntimeError("core already has a tracer attached")
        core.attach_observer(self)
        self.core = core
        return self

    def on_fetch(self, uop: "DynInst", cycle: int) -> None:
        self._live[uop.seq] = TraceRecord(
            seq=uop.seq, pc=uop.pc, op=str(uop.inst), fetch=cycle
        )

    def on_dispatch(self, uop: "DynInst", cycle: int) -> None:
        record = self._live.get(uop.seq)
        if record is not None:
            record.dispatch = cycle

    def on_issue(self, uop: "DynInst", cycle: int) -> None:
        record = self._live.get(uop.seq)
        if record is None:
            return
        record.issue = cycle  # a re-issued uop keeps its final issue cycle
        record.delayed_cycles = uop.delayed_cycles
        tx = uop.tx
        if tx is not None:
            if tx.predicted_level is not None:
                record.oblivious = True
                record.predicted_level = tx.predicted_level.name
            if tx.fp_predicted_fast:
                record.oblivious = True

    def on_complete(self, uop: "DynInst", cycle: int) -> None:
        record = self._live.get(uop.seq)
        if record is not None:
            record.complete = cycle

    def on_commit(self, uop: "DynInst", cycle: int) -> None:
        record = self._live.pop(uop.seq, None)
        if record is not None:
            self._backfill_complete(record, uop)
            record.commit = cycle
            self._finish(record)

    def on_squash(self, uop: "DynInst", cycle: int) -> None:
        record = self._live.pop(uop.seq, None)
        if record is not None:
            self._backfill_complete(record, uop)
            record.squash = cycle
            self._finish(record)

    @staticmethod
    def _backfill_complete(record: TraceRecord, uop: "DynInst") -> None:
        # Branches and IQ-bypassing uops complete outside the writeback
        # path (no on_complete callback); their completion cycle is still
        # stamped on the uop itself.
        if record.complete < 0:
            record.complete = getattr(uop, "complete_cycle", -1)

    # ------------------------------------------------------------------ #
    # Buffering / flushing
    # ------------------------------------------------------------------ #

    def _finish(self, record: TraceRecord) -> None:
        self._recorded += 1
        if self.konata_path is not None:
            if len(self._konata) < self.konata_limit:
                self._konata.append(record)
            else:
                self._konata_truncated += 1
        self._done.append(record)
        if self._jsonl_fh is not None and len(self._done) >= self.buffer_capacity:
            self._flush_window()

    def _flush_window(self) -> None:
        if self._jsonl_fh is None:
            return
        while self._done:
            self._jsonl_fh.write(
                json.dumps(self._done.popleft().to_dict(), sort_keys=True) + "\n"
            )

    def records(self) -> list[TraceRecord]:
        """The finished records currently buffered in memory (most recent
        ``buffer_capacity`` when no JSONL sink is draining the buffer)."""
        return list(self._done)

    # ------------------------------------------------------------------ #
    # Finalization
    # ------------------------------------------------------------------ #

    def summary(self) -> dict[str, object]:
        """The trailing JSONL record: totals plus stall attribution."""
        core = self.core
        stall: dict[str, int] = {}
        cycles = instructions = commit_active = 0
        if core is not None:
            prefix = "stall."
            stall = {
                key[len(prefix):]: int(value)
                for key, value in core.stats.group("stall").as_dict().items()
                if key.startswith(prefix)
            }
            cycles = core.cycle
            instructions = core.stats["instructions"]
            commit_active = core.commit_active_cycles
        return {
            "kind": "summary",
            "schema": TRACE_SCHEMA,
            "cycles": cycles,
            "instructions": instructions,
            "commit_active_cycles": commit_active,
            "stall": stall,
            "uops_recorded": self._recorded,
            "in_flight_at_close": len(self._live),
            "konata_truncated": self._konata_truncated,
        }

    def close(self) -> dict[str, object]:
        """Flush everything, write the Konata file, return the summary."""
        if self._closed:
            return self.summary()
        self._closed = True
        # Uops still in flight at the end of the run never finished; record
        # them as-is so the trace accounts for every fetched instruction.
        for seq in sorted(self._live):
            self._finish(self._live[seq])
        self._live.clear()
        summary = self.summary()
        if self._jsonl_fh is not None:
            self._flush_window()
            self._jsonl_fh.write(json.dumps(summary, sort_keys=True) + "\n")
            self._jsonl_fh.close()
            self._jsonl_fh = None
        if self.konata_path is not None:
            self.konata_path.write_text(render_konata(self._konata))
            self._konata = []
        if self.core is not None:
            self.core.detach_observer(self)
        return summary

    def __enter__(self) -> "CycleTracer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def render_konata(records: list[TraceRecord]) -> str:
    """Render finished trace records as a Kanata 0004 log.

    Stage lanes: F (fetch), Ds (dispatch/rename), Is (issue/execute), Cm
    (complete-to-retire).  Committed uops end with a retire record, squashed
    ones with a flush record; uops that died in the decode queue show only
    their F stage.
    """
    records = sorted((r for r in records if r.fetch >= 0), key=lambda r: r.seq)
    if not records:
        return "Kanata\t0004\nC=\t0\n"
    # Collect (cycle, order, line) events, then replay them cycle by cycle.
    events: list[tuple[int, int, str]] = []
    retire_id = 0
    for uid, record in enumerate(records):
        events.append((record.fetch, 0, f"I\t{uid}\t{record.seq}\t0"))
        events.append((record.fetch, 1, f"L\t{uid}\t0\t{record.pc}: {record.op}"))
        events.append((record.fetch, 2, f"S\t{uid}\t0\tF"))
        stages = [(record.dispatch, "Ds"), (record.issue, "Is"), (record.complete, "Cm")]
        last = record.fetch
        for cycle, stage in stages:
            if cycle >= last >= 0 and cycle >= 0:
                events.append((cycle, 2, f"S\t{uid}\t0\t{stage}"))
                last = cycle
        if record.commit >= 0:
            retire_id += 1
            events.append((max(record.commit, last), 3, f"R\t{uid}\t{retire_id}\t0"))
        else:
            flush_at = record.squash if record.squash >= last else last
            retire_id += 1
            events.append((flush_at, 3, f"R\t{uid}\t{retire_id}\t1"))
    events.sort(key=lambda item: (item[0], item[1]))
    first_cycle = events[0][0]
    lines = ["Kanata\t0004", f"C=\t{first_cycle}"]
    current = first_cycle
    for cycle, _, line in events:
        if cycle > current:
            lines.append(f"C\t{cycle - current}")
            current = cycle
        lines.append(line)
    return "\n".join(lines) + "\n"


def render_timeline(
    records: list[TraceRecord], first: int = 0, count: int = 32, width: int = 64
) -> str:
    """Text pipeline diagram of ``count`` uops, starting at index ``first``
    of the retired stream in ``records``::

        cycles 100..137 (1 column = 1 cycle(s))
           311    6 O load r6 r5 1048576          F  D    I==R

    Legend: F fetch, D dispatch/rename, I issue, ``=`` execute, C complete,
    R retire; ``O`` marks a uop that issued obliviously.
    """
    retired = sorted((r for r in records if r.retired), key=lambda r: r.seq)
    shown = retired[first : first + count]
    if not shown:
        return "(no retired uops recorded)"
    base = min(r.fetch for r in shown)
    span = max(r.commit for r in shown) - base + 1
    scale = max(1, (span + width - 1) // width)
    lines = [f"cycles {base}..{base + span} (1 column = {scale} cycle(s))"]
    for record in shown:
        row = [" "] * width

        def mark(cycle: int, char: str) -> None:
            if cycle >= 0:
                row[min(width - 1, (cycle - base) // scale)] = char

        if record.issue >= 0 and record.complete >= 0:
            for cycle in range(record.issue, record.complete + 1, scale):
                mark(cycle, "=")
        mark(record.fetch, "F")
        mark(record.dispatch, "D")
        mark(record.issue, "I")
        mark(record.complete, "C")
        mark(record.commit, "R")
        tag = "O" if record.oblivious else " "
        lines.append(
            f"{record.seq:6d} {record.pc:4d} {tag} {record.op[:26]:26s} {''.join(row)}"
        )
    return "\n".join(lines)


def average_latency(records: list[TraceRecord]) -> float:
    """Mean fetch-to-commit cycles over the retired records."""
    latencies = [r.commit - r.fetch for r in records if r.retired and r.fetch >= 0]
    return sum(latencies) / len(latencies) if latencies else 0.0
