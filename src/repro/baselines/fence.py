"""Fence-on-every-load: the worst-case conservative baseline.

The classic software mitigation for Spectre-style attacks is to fence
every load out of the speculative shadow: no load may issue until it is
no longer speculative.  This is the pessimistic end-point of the design
space that delay-of-miss, STT and SDO all try to improve on — a load
issues only once every older branch has resolved, regardless of taint,
cache residence, or predicted level.

Implementation-wise this is :class:`DelayOnMissProtection` minus its
L1-hit escape hatch: the same root-safety test (all older control flow
resolved) gates the load, but a speculative load is *always* delayed to
its visibility point, even when the line is sitting in the L1.  Like
delay-on-miss it needs no taint bookkeeping beyond the untaint frontier,
so branches resolve normally and fast-forward stays safe.
"""

from __future__ import annotations

from repro.common.config import AttackModel
from repro.pipeline.protection import ISSUE_DELAY, ISSUE_NORMAL, IssueDecision
from repro.stt.protection import SttProtection


class FenceProtection(SttProtection):
    """Delay *every* speculative load to its visibility point."""

    def __init__(self, attack_model: AttackModel = AttackModel.SPECTRE):
        super().__init__(attack_model=attack_model, fp_transmitters=False)
        self.name = "Fence"

    def load_issue_decision(self, uop) -> IssueDecision:
        if self.is_root_safe(uop.seq):
            return ISSUE_NORMAL
        # Counted via the ``protection.decisions.load_delay`` convention.
        return ISSUE_DELAY

    def may_resolve_branch(self, uop) -> bool:
        # Branches resolve normally; only loads are gated.
        return True
