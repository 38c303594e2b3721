"""Feed a recorded trace through the timing pipeline.

A replayed run builds exactly the machine a live run would —
:func:`~repro.sim.api.execute` with the same request, same protection
scheme, same hierarchy — but plugs a
:class:`~repro.replay.trace.TraceCursor` into the core's golden-reference
slot instead of the functional ISS.  The reference is pure validation:
wrong-path work is still executed and squashed, protection decisions are
still taken by the scheme, and every committed instruction is still
checked (against the recording instead of a re-interpretation).  The
produced :class:`~repro.sim.api.RunMetrics` are **bit-identical** to a
live run's; ``tests/replay/test_equivalence.py`` and the
``replay-equivalence`` CI job enforce this across a scheme × config ×
workload grid.

Fallback ladder (:func:`replay_or_execute`): a missing, torn, or corrupt
trace is a miss; a trace the run outruns (:class:`TraceExhausted` — the
recording was budget-cut) aborts the replay and re-runs live.  A
:class:`~repro.pipeline.core.GoldenModelMismatch`, by contrast, is *not*
swallowed — a checksum-valid trace that disagrees with the core is the
same correctness alarm a live golden check would raise.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.replay.store import TraceStore
from repro.replay.trace import ArchTrace, TraceCursor, TraceExhausted, trace_key

if TYPE_CHECKING:
    from repro.sim.api import RunMetrics, RunRequest


def replay_execute(request: "RunRequest", trace: ArchTrace) -> "RunMetrics":
    """Run ``request`` through the timing pipeline against ``trace``.

    Raises :class:`TraceExhausted` if the run commits past the recording
    and :class:`~repro.pipeline.core.GoldenModelMismatch` if the core
    diverges from it.
    """
    from repro.sim.api import execute

    return execute(request, golden=TraceCursor(trace))


def replay_or_execute(request: "RunRequest", store: "TraceStore | str | Path") -> "RunMetrics":
    """Replay ``request`` from ``store`` when possible, else run it live.

    The returned metrics are identical either way; the store only decides
    how much work producing them costs.
    """
    from repro.sim.api import execute

    if not isinstance(store, TraceStore):
        store = TraceStore(store)
    trace = store.get(trace_key(request))
    if trace is None:
        return execute(request)
    try:
        return replay_execute(request, trace)
    except TraceExhausted:
        return execute(request)


class TraceReplayer:
    """Replays requests against a :class:`TraceStore`, recording on miss.

    ``ensure(request)`` makes the store cover the request (recording the
    trace functionally if absent); ``replay(request)`` then produces the
    bit-identical metrics.  The sweep engine drives this
    ensure-then-replay shape.
    """

    def __init__(self, store: TraceStore) -> None:
        self.store = store

    def ensure(self, request: "RunRequest") -> str:
        """Record the request's trace into the store if missing; returns
        the trace key either way."""
        from repro.replay.recorder import record_trace

        key = trace_key(request)
        if not self.store.has(key):
            self.store.put(key, record_trace(request))
        return key

    def replay(self, request: "RunRequest") -> "RunMetrics":
        """``ensure`` + replay-or-live: never fails on store state alone."""
        self.ensure(request)
        return replay_or_execute(request, self.store)
