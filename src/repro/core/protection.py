"""STT+SDO as a pipeline protection scheme.

Extends :class:`~repro.stt.protection.SttProtection`: instead of delaying a
tainted transmitter, it mobilizes safe prediction —

* a tainted **load** consults the location predictor and issues as an
  Obl-Ld at the predicted level; a DRAM prediction reverts to STT-style
  delay (no DO variant exists for DRAM, Section VI-B2);
* a tainted **FP transmitter** (when ``fp_transmitters``) issues on the
  statically predicted fast path (Section I-A's running example);
* the location predictor is trained only at safe points, with untainted
  outcomes (Section V-C3), via :meth:`on_load_outcome`.

Precision/accuracy accounting for Table III happens here, at prediction
time, against the ground-truth residence level.
"""

from __future__ import annotations

from repro.common.config import AttackModel, MemLevel
from repro.core.predictors import LocationPredictor, PerfectPredictor
from repro.pipeline.protection import (
    ISSUE_DELAY,
    ISSUE_NORMAL,
    FpIssueAction,
    IssueDecision,
    LoadIssueAction,
)
from repro.pipeline.uop import DynInst
from repro.stt.protection import SttProtection

_DRAM = MemLevel.DRAM
_OBLIVIOUS = LoadIssueAction.OBLIVIOUS
#: The oblivious-issue decision per predicted level, built once.
_OBLIVIOUS_AT = {level: IssueDecision(_OBLIVIOUS, predicted_level=level) for level in MemLevel}
_FP_NORMAL = FpIssueAction.NORMAL
_FP_PREDICT_FAST = FpIssueAction.PREDICT_FAST


class SdoProtection(SttProtection):
    """STT with SDO operations for tainted transmitters."""

    def __init__(
        self,
        predictor: LocationPredictor,
        attack_model: AttackModel = AttackModel.SPECTRE,
        fp_transmitters: bool = False,
        dram_do_variant: bool = False,
    ) -> None:
        super().__init__(attack_model=attack_model, fp_transmitters=fp_transmitters)
        self.predictor = predictor
        self.dram_do_variant = dram_do_variant
        self.name = f"STT+SDO({predictor.name})"
        self.sdo_stats = self.stats.group("sdo")

    # --- loads ------------------------------------------------------------ #

    def load_issue_decision(self, uop: DynInst) -> IssueDecision:
        if not self.sources_tainted(uop):
            return ISSUE_NORMAL
        tx = uop.tx
        if tx.predicted_level is None:
            self._predict_for(uop)
        level = tx.predicted_level
        if level is _DRAM and not self.dram_do_variant:
            # Section VI-B2: predicting DRAM means reverting to STT's
            # default protection for this load — delay, don't squash.
            return ISSUE_DELAY
        return _OBLIVIOUS_AT[level]

    def _predict_for(self, uop: DynInst) -> None:
        actual = self.core.hierarchy.residence_level(uop.addr)
        oracle_hint = actual if isinstance(self.predictor, PerfectPredictor) else None
        level = self.predictor.predict(uop.pc, oracle_hint=oracle_hint)
        uop.tx.predicted_level = level
        self.sdo_stats.bump("predictions")
        if level == actual:
            self.sdo_stats.bump("precise")
            self.sdo_stats.bump("accurate")
        elif level > actual:
            self.sdo_stats.bump("accurate")
        if level is _DRAM and not self.dram_do_variant:
            self.sdo_stats.bump("dram_delays")

    def on_load_outcome(self, uop: DynInst, actual_level: MemLevel) -> None:
        """Safe-point training (success: at C; fail: with the level the
        validation/re-execution found)."""
        self.predictor.update(uop.pc, actual_level)
        self.sdo_stats.bump("updates")

    # --- FP transmitters ---------------------------------------------------- #

    def fp_issue_decision(self, uop: DynInst) -> FpIssueAction:
        if self.fp_transmitters and self.sources_tainted(uop):
            return _FP_PREDICT_FAST
        return _FP_NORMAL

    # --- reporting ---------------------------------------------------------- #

    @property
    def precision(self) -> float:
        total = self.sdo_stats["predictions"]
        return self.sdo_stats["precise"] / total if total else 0.0

    @property
    def accuracy(self) -> float:
        total = self.sdo_stats["predictions"]
        return self.sdo_stats["accurate"] / total if total else 0.0
