"""The untaint frontier: STT's "fast untaint" mechanism.

A taint root (the sequence number of a speculative access instruction) is
*safe* — has reached its visibility point — when no squash-capable
instruction older than it remains unfinished.  Which instructions count as
squash-capable depends on the attack model (Section III):

* **Spectre**: only unresolved control-flow instructions.  A root untaints
  once every older branch has resolved (and had its resolution applied —
  under STT a tainted branch's resolution is itself delayed, which is what
  makes nested speculation compose).
* **Futuristic**: any instruction that could still squash for any reason —
  unresolved branches, loads that have not finished (including pending
  validations and pending Obl-Ld fail squashes), and fast-predicted FP
  transmitters whose prediction has not been checked.

The frontier is the minimum sequence number over that set; root ``r`` is
safe iff ``frontier >= r`` (the instruction *at* the frontier is not older
than itself).  STT performs untainting in a single cycle; we mirror that by
recomputing the frontier once per cycle via a lazily pruned min-heap.
"""

from __future__ import annotations

import heapq
import math

from repro.common.config import AttackModel
from repro.pipeline.uop import DynInst, OblState


_OBL_NONE = OblState.NONE
_FUTURISTIC = AttackModel.FUTURISTIC


def _branch_finished(uop: DynInst) -> bool:
    return uop.squashed or uop.resolved


def _load_finished(uop: DynInst) -> bool:
    if uop.squashed:
        return True
    tx = uop.tx
    if not uop.state.done or tx.pending_squash:
        return False
    if tx.needs_validation and not tx.validation_done:
        return False
    # An Obl-Ld can still fail-squash until its safe point.
    return tx.obl_state is _OBL_NONE or tx.safe


def _fp_finished(uop: DynInst) -> bool:
    if uop.squashed:
        return True
    if not uop.state.done:
        return False
    tx = uop.tx
    return not tx.fp_predicted_fast or tx.safe


class UntaintFrontier:
    """Minimum unfinished squash-capable sequence number, per attack model."""

    def __init__(self, model: AttackModel) -> None:
        self.model = model
        self._heap: list[tuple[int, DynInst]] = []

    def register(self, uop: DynInst) -> None:
        """Called at rename for every potentially squash-capable uop."""
        if uop.is_branch:
            heapq.heappush(self._heap, (uop.seq, uop))
        elif self.model is _FUTURISTIC and (
            uop.is_load or uop.is_fp_transmitter
        ):
            heapq.heappush(self._heap, (uop.seq, uop))

    @staticmethod
    def _finished(uop: DynInst) -> bool:
        if uop.is_branch:
            return _branch_finished(uop)
        if uop.is_load:
            return _load_finished(uop)
        return _fp_finished(uop)

    def value(self) -> float:
        """Current frontier (``math.inf`` when nothing can squash)."""
        while self._heap and self._finished(self._heap[0][1]):
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else math.inf

    def is_safe(self, root_seq: int | None) -> bool:
        """Has ``root_seq`` reached its visibility point?"""
        if root_seq is None:
            return True
        return self.value() >= root_seq

    def __len__(self) -> int:
        return len(self._heap)
