"""STT as a pipeline protection scheme (Table II: STT{ld}, STT{ld+fp})."""

from __future__ import annotations

from repro.common.config import AttackModel
from repro.common.stats import StatGroup
from repro.pipeline.protection import (
    ISSUE_DELAY,
    ISSUE_NORMAL,
    FpIssueAction,
    IssueDecision,
    ProtectionScheme,
)
from repro.pipeline.uop import DynInst
from repro.stt.taint import UntaintFrontier

_FP_NORMAL = FpIssueAction.NORMAL
_FP_DELAY = FpIssueAction.DELAY


class SttProtection(ProtectionScheme):
    """Delay-execution STT.

    * Tainted loads are delayed until their operands untaint (explicit
      channel rule for the load transmitter).
    * With ``fp_transmitters=True``, tainted fmul/fdiv/fsqrt are delayed too.
    * Branch resolution is delayed while the predicate is tainted
      (resolution-based implicit channel rule); predictor updates therefore
      only ever see untainted outcomes.
    """

    def __init__(
        self,
        attack_model: AttackModel = AttackModel.SPECTRE,
        fp_transmitters: bool = False,
    ) -> None:
        super().__init__()
        self.attack_model = attack_model
        self.fp_transmitters = fp_transmitters
        self.frontier = UntaintFrontier(attack_model)
        self.stats = StatGroup("stt")
        self._cached_frontier: float = float("inf")
        self.name = f"STT{{ld{'+fp' if fp_transmitters else ''}}}"

    # --- taint ---------------------------------------------------------- #

    def on_rename(self, uop: DynInst) -> None:
        taint_roots = self.core.prf.taint_root
        src_root = None
        for preg in uop.src_pregs:
            root = taint_roots[preg]
            if root is not None and (src_root is None or root > src_root):
                src_root = root
        uop.src_taint_root = src_root
        if uop.is_load:
            # Access instruction: output tainted with its own seq as the
            # youngest root of taint (it is younger than any source root).
            root = uop.seq
            self.stats.bump("access_taints")
        else:
            root = src_root
        uop.taint_root = root
        if uop.dest_preg is not None:
            taint_roots[uop.dest_preg] = root
        self.frontier.register(uop)

    def begin_cycle(self, cycle: int) -> None:
        self._cached_frontier = self.frontier.value()

    def is_root_safe(self, root_seq: int | None) -> bool:
        if root_seq is None:
            return True
        return self._cached_frontier >= root_seq

    # The two queries below inline ``is_root_safe``: the core asks them for
    # every ready load, FP transmitter and resolving branch.

    def sources_tainted(self, uop: DynInst) -> bool:
        root = uop.src_taint_root
        return root is not None and self._cached_frontier < root

    def output_safe(self, uop: DynInst) -> bool:
        """Event C: the uop's operands (e.g. a load's address) untainted."""
        root = uop.src_taint_root
        return root is None or self._cached_frontier >= root

    # --- issue policy ---------------------------------------------------- #

    def load_issue_decision(self, uop: DynInst) -> IssueDecision:
        if self.sources_tainted(uop):
            return ISSUE_DELAY
        return ISSUE_NORMAL

    def fp_issue_decision(self, uop: DynInst) -> FpIssueAction:
        if self.fp_transmitters and self.sources_tainted(uop):
            return _FP_DELAY
        return _FP_NORMAL

    # --- implicit channels ------------------------------------------------ #

    def may_resolve_branch(self, uop: DynInst) -> bool:
        return not self.sources_tainted(uop)
