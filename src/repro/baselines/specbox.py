"""SpecBox-style label-based transparent speculation (arXiv 2107.08367).

Every load issued before its visibility point executes *transparently*: it
reads real data with its real address-dependent timing, but all cache-state
side effects are confined to the hierarchy's per-core speculative buffer.
When the load commits, the buffered line is released into the caches (the
fill becomes architecturally visible); when it squashes, the entry is
dropped and no cache-state trace remains — which is what defeats
flush+reload receivers.

Labels are propagated exactly like STT taint (we reuse the STT rename-time
taint plumbing and the untaint frontier), and a load's own speculation
status — ``is_root_safe(uop.seq)`` — decides between a normal and a
buffered issue.  Nothing is ever delayed and branch resolution is never
held, so the scheme's overhead is only the commit-time fills and the lost
warming from squashed wrong-path loads.

What transparency does *not* hide (deliberately modeled): the speculative
load still contends on ports, banks and MSHRs, and a DRAM access still
opens its row buffer.  The forward-interference harness
(``repro.security.forward_interference``) measures exactly that residue.
"""

from __future__ import annotations

from repro.common.config import AttackModel
from repro.pipeline.protection import ISSUE_BUFFERED, ISSUE_NORMAL, IssueDecision
from repro.pipeline.uop import DynInst
from repro.stt.protection import SttProtection


class SpecBoxProtection(SttProtection):
    """Transparent speculation behind the standard scheme interface."""

    def __init__(self, attack_model: AttackModel = AttackModel.SPECTRE) -> None:
        super().__init__(attack_model=attack_model, fp_transmitters=False)
        self.name = "SpecBox"

    # --- issue policy ---------------------------------------------------- #

    def load_issue_decision(self, uop: DynInst) -> IssueDecision:
        # The label query: is this load still speculative?  Its own seq is
        # the youngest root that matters — if the load has reached its
        # visibility point, every older label has too.
        if self.is_root_safe(uop.seq):
            return ISSUE_NORMAL
        return ISSUE_BUFFERED

    # --- implicit channels ------------------------------------------------ #

    def may_resolve_branch(self, uop: DynInst) -> bool:
        # SpecBox never delays resolution: wrong-path work squashes
        # immediately and its buffered lines are dropped below.
        return True

    # --- buffer lifecycle ------------------------------------------------- #

    def on_commit(self, uop: DynInst) -> None:
        if uop.is_load and uop.tx.spec_buffered:
            self.stats.bump("spec_commits")
            self.core.hierarchy.release_speculative(uop.addr, self.core.cycle)

    def on_squash(self, uop: DynInst) -> None:
        if uop.is_load and uop.tx.spec_buffered:
            self.stats.bump("spec_squashes")
            self.core.hierarchy.drop_speculative(uop.addr)
