"""Trace capture and replay: record an architectural trace once, replay it
through the timing pipeline many times.

Every cell of a paper-reproduction sweep that shares a (program, initial
memory, instruction budget) triple commits the *same* architectural
instruction stream — protection schemes and memory parameters change the
timing, never the committed semantics (the golden model guarantees it).
This package exploits that:

* :class:`TraceRecorder` / :func:`record_trace` run the functional ISS
  *standalone* (no timing model) and capture the committed stream —
  pc, opcode, fetch/branch outcome, load/store address, result value —
  into a compact, versioned, checksummed binary :class:`ArchTrace`.
* :class:`TraceStore` content-addresses traces on disk next to the
  :class:`~repro.sim.cache.ResultCache` (``<cache>/traces/``), keyed by
  :func:`trace_key` over exactly the architectural material.
* :class:`TraceCursor` plugs a trace into the core's golden-reference
  slot, so a replayed run verifies every commit against the recording
  instead of re-executing the functional model.
* :class:`TraceReplayer` / :func:`replay_execute` /
  :func:`replay_or_execute` produce :class:`~repro.sim.api.RunMetrics`
  **bit-identical** to a live run — the reference is pure validation and
  never feeds the timing model — falling back to live execution whenever
  the trace is missing, torn, or too short.

The trace schema has its own version-bump rule (``TRACE_SCHEMA_VERSION``),
mirroring the result cache's ``SCHEMA_VERSION``; ``tests/sim/test_wire_pin.py``
pins every generated request's ``trace_key`` and fails on a drift without it.
"""

from repro.replay.recorder import TraceRecorder, record_trace
from repro.replay.replayer import TraceReplayer, replay_execute, replay_or_execute
from repro.replay.store import TraceStore
from repro.replay.trace import (
    TRACE_SCHEMA_VERSION,
    ArchTrace,
    TraceCursor,
    TraceExhausted,
    TraceFormatError,
    trace_key,
)

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "ArchTrace",
    "TraceCursor",
    "TraceExhausted",
    "TraceFormatError",
    "TraceRecorder",
    "TraceReplayer",
    "TraceStore",
    "record_trace",
    "replay_execute",
    "replay_or_execute",
    "trace_key",
]
