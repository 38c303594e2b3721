"""Taint-window and memory-level-parallelism probes.

Both quantities explain *why* the Figure 6 numbers come out the way they
do:

* the **taint window** of a protected load is the time between "operands
  ready" and "operands safe".  STT stalls the load for the whole window;
  SDO hides it behind an oblivious lookup.  The distribution (collected by
  :class:`TaintWindowProbe`) shows how much there is to win.
* **MLP** is the number of long-latency loads in flight simultaneously.
  STT's delays serialize dependent-miss chains (MLP -> 1); SDO restores the
  overlap.  :class:`MlpProbe` samples in-flight miss counts per cycle.

Both subscribe to the core they are built with, as
:class:`~repro.pipeline.core.CoreObserver` subclasses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import MemLevel
from repro.common.stats import Histogram
from repro.pipeline.core import Core, CoreObserver
from repro.pipeline.protection import IssueDecision, LoadIssueAction
from repro.pipeline.uop import DynInst


class TaintWindowProbe(CoreObserver):
    """Histogram of (safe_cycle - ready_cycle) per protected load.

    Ready is approximated by the load's first issue decision; safe is when
    the protection declared the output safe (event C) — for loads that were
    never tainted the window is 0 and is *not* recorded.
    """

    def __init__(self, core: Core) -> None:
        self.windows = Histogram()
        self._ready_at: dict[int, int] = {}
        core.attach_observer(self)

    def on_load_decision(
        self, uop: DynInst, cycle: int, decision: IssueDecision
    ) -> None:
        ready = self._ready_at.setdefault(uop.seq, cycle)
        if decision.action is not LoadIssueAction.DELAY and uop.delayed_cycles > 0:
            # An STT-delayed load finally issuing: its window just closed.
            self.windows.add(max(0, cycle - ready))

    def on_safe(self, uop: DynInst, cycle: int) -> None:
        ready = self._ready_at.get(uop.seq)
        if ready is not None and uop.is_load and uop.delayed_cycles == 0:
            # An Obl-Ld that issued immediately: window closes at C.
            self.windows.add(max(0, cycle - ready))

    @property
    def mean_window(self) -> float:
        return self.windows.mean

    def percentile(self, p: float) -> int:
        return self.windows.percentile(p)


@dataclass
class MlpSample:
    cycle: int
    outstanding: int


class MlpProbe(CoreObserver):
    """Samples the number of outstanding long-latency loads per cycle.

    A load counts as outstanding from issue until it completes or is
    squashed, if its residence was below the L1 (it is a "miss" from the
    core's viewpoint).
    """

    def __init__(self, core: Core) -> None:
        self.samples: list[MlpSample] = []
        self.in_flight: dict[int, int] = {}  # seq -> issue cycle
        core.attach_observer(self)

    def on_issue(self, uop: DynInst, cycle: int) -> None:
        if not uop.is_load:
            return
        level = uop.tx.actual_level
        if level is not None and level > MemLevel.L1:
            self.in_flight[uop.seq] = cycle

    def on_complete(self, uop: DynInst, cycle: int) -> None:
        self.in_flight.pop(uop.seq, None)

    on_squash = on_complete  # a squashed load never writes back

    def on_cycle_end(self, cycle: int) -> None:
        if self.in_flight:
            self.samples.append(MlpSample(cycle, len(self.in_flight)))

    @property
    def mean_mlp(self) -> float:
        """Average outstanding misses over cycles that had any."""
        if not self.samples:
            return 0.0
        return sum(s.outstanding for s in self.samples) / len(self.samples)

    @property
    def peak_mlp(self) -> int:
        return max((s.outstanding for s in self.samples), default=0)
