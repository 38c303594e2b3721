"""Post-run analysis instruments.

Every instrument here is a :class:`~repro.pipeline.core.CoreObserver`:
it subscribes to a :class:`~repro.pipeline.core.Core`'s pipeline events
*before* a run and collects per-instruction observations that the
aggregate counters can't express:

* :class:`CycleTracer` — per-uop milestone cycles with bounded memory,
  exported as JSONL and/or Konata pipeline-viewer logs, and rendered as a
  text pipeline diagram by :func:`render_timeline` (a poor man's Konata);
* :class:`TaintWindowProbe` — the distribution of taint-window lengths
  (cycles between a protected load becoming ready and becoming safe),
  which is the quantity STT's delay and SDO's prediction both race against;
* :class:`MlpProbe` — overlapped-miss statistics, the memory-level
  parallelism that STT's delays destroy and SDO recovers.

:class:`PhaseProfiler` rides beside them: opt-in wall-time phase profiling
surfaced as ``profile.*`` stats on :class:`~repro.sim.api.RunMetrics`.

All instruments are observation-only: attaching them never changes the
run's stats (verified by test).
"""

from repro.analysis.profiler import PhaseProfiler
from repro.analysis.probes import MlpProbe, TaintWindowProbe
from repro.analysis.trace import (
    CycleTracer,
    TraceRecord,
    average_latency,
    render_konata,
    render_timeline,
)

__all__ = [
    "CycleTracer",
    "MlpProbe",
    "PhaseProfiler",
    "TaintWindowProbe",
    "TraceRecord",
    "average_latency",
    "render_konata",
    "render_timeline",
]
