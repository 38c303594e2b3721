"""Delay-on-miss (Sakalis et al., ISCA'19 / the InvisiSpec family).

Speculative loads that *hit* the L1 proceed — an L1 hit reveals nothing
below the private L1 and is considered acceptable leakage by the scheme
(the known residual being replacement-state updates).  Speculative loads
that *miss* the L1 are delayed until they reach their visibility point,
exactly like an STT-delayed load; they then retry and issue normally.

"Speculative" is judged by the same visibility-point machinery STT uses
(the untaint frontier over the load's own sequence number), so the scheme
composes with both attack models: under *Spectre*, a load delays until all
older branches resolve; under *Futuristic*, until nothing older can squash.

Unlike STT, the decision is per-*residence* rather than per-taint: an
untainted speculative load that misses is delayed too, which is why
delay-on-miss is the most expensive baseline on miss-heavy workloads —
and why its L1-hit fast path is a secret-dependent behaviour divergence
the forward-interference harness can probe.
"""

from __future__ import annotations

from repro.common.config import AttackModel
from repro.pipeline.protection import ISSUE_DELAY, ISSUE_NORMAL, IssueDecision
from repro.pipeline.uop import DynInst
from repro.stt.protection import SttProtection


class DelayOnMissProtection(SttProtection):
    """Delay speculative L1 misses; let speculative L1 hits proceed."""

    def __init__(self, attack_model: AttackModel = AttackModel.SPECTRE) -> None:
        super().__init__(attack_model=attack_model, fp_transmitters=False)
        self.name = "DelayOnMiss"

    # --- issue policy ---------------------------------------------------- #

    def load_issue_decision(self, uop: DynInst) -> IssueDecision:
        if self.is_root_safe(uop.seq):
            return ISSUE_NORMAL
        if self.core.hierarchy.line_in_l1(uop.addr):
            # A speculative L1 hit proceeds through the normal path: the
            # access stays inside the private L1 (no fills below it), which
            # is the scheme's accepted leakage surface.
            # (Bumped on an issuing — hence non-idle — cycle, so the count
            # is identical under the naive and fast-forwarding loops; the
            # per-retry delay side is counted by the core's
            # ``protection.decisions.load_delay`` convention instead.)
            self.stats.bump("dom_hits_allowed")
            return ISSUE_NORMAL
        return ISSUE_DELAY

    # --- implicit channels ------------------------------------------------ #

    def may_resolve_branch(self, uop: DynInst) -> bool:
        # Delay-on-miss does not gate branch resolution.
        return True
