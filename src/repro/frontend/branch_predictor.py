"""Tournament branch predictor (local bimodal + gshare + chooser).

The classic Alpha 21264-style tournament design: a per-PC bimodal component,
a global-history gshare component, and a chooser table that learns which
component to trust per branch.  All tables are arrays of 2-bit saturating
counters.

Speculative history management: the global history register is updated
*speculatively* at predict time (the usual high-performance choice) and
repaired on a squash via the snapshot captured in the
:class:`BranchPrediction` returned to the pipeline.
"""

from __future__ import annotations

from typing import NamedTuple


def _saturate(value: int, delta: int, maximum: int = 3) -> int:
    return max(0, min(maximum, value + delta))


class BimodalTable:
    """PC-indexed 2-bit counters (the 'local' tournament component)."""

    def __init__(self, entries: int = 2048) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self._mask = entries - 1
        self._counters = [1] * entries  # weakly not-taken

    def predict(self, pc: int) -> bool:
        return self._counters[pc & self._mask] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = pc & self._mask
        self._counters[index] = _saturate(self._counters[index], 1 if taken else -1)


class GshareTable:
    """Global-history XOR PC indexed 2-bit counters."""

    def __init__(self, entries: int = 4096, history_bits: int = 12) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self._mask = entries - 1
        self._history_mask = (1 << history_bits) - 1
        self._counters = [1] * entries

    def _index(self, pc: int, history: int) -> int:
        return (pc ^ (history & self._history_mask)) & self._mask

    def predict(self, pc: int, history: int) -> bool:
        return self._counters[self._index(pc, history)] >= 2

    def update(self, pc: int, history: int, taken: bool) -> None:
        index = self._index(pc, history)
        self._counters[index] = _saturate(self._counters[index], 1 if taken else -1)


class BranchPrediction(NamedTuple):
    """A direction prediction plus the state needed to update/repair it.

    A named tuple rather than a frozen dataclass: one is built for every
    fetched conditional branch, wrong path included."""

    taken: bool
    history_snapshot: int  # global history *before* this prediction
    local_prediction: bool
    global_prediction: bool


class TournamentPredictor:
    """Local + gshare + chooser."""

    def __init__(
        self,
        local_entries: int = 2048,
        global_entries: int = 4096,
        chooser_entries: int = 4096,
        history_bits: int = 12,
    ) -> None:
        self.local = BimodalTable(local_entries)
        self.gshare = GshareTable(global_entries, history_bits)
        self._chooser = [2] * chooser_entries  # weakly prefer global
        self._chooser_mask = chooser_entries - 1
        if chooser_entries & (chooser_entries - 1):
            raise ValueError("chooser entries must be a power of two")
        self._history_mask = (1 << history_bits) - 1
        self.history = 0
        self.predictions = 0
        self.mispredictions = 0

    def predict(self, pc: int) -> BranchPrediction:
        """Predict a conditional branch at ``pc``; speculatively shifts the
        taken bit into the global history."""
        snapshot = self.history
        local_prediction = self.local.predict(pc)
        global_prediction = self.gshare.predict(pc, snapshot)
        use_global = self._chooser[pc & self._chooser_mask] >= 2
        taken = global_prediction if use_global else local_prediction
        self.history = ((snapshot << 1) | int(taken)) & self._history_mask
        self.predictions += 1
        return BranchPrediction(taken, snapshot, local_prediction, global_prediction)

    def update(self, pc: int, prediction: BranchPrediction, taken: bool) -> None:
        """Train on the resolved outcome.

        Under STT this is only called once the branch's predicate is
        untainted (Section III: prediction-based implicit channels are
        blocked by keeping tainted data out of predictor state).
        """
        self.local.update(pc, taken)
        self.gshare.update(pc, prediction.history_snapshot, taken)
        local_correct = prediction.local_prediction == taken
        global_correct = prediction.global_prediction == taken
        if local_correct != global_correct:
            index = pc & self._chooser_mask
            self._chooser[index] = _saturate(
                self._chooser[index], 1 if global_correct else -1
            )
        if prediction.taken != taken:
            self.mispredictions += 1

    def repair(self, prediction: BranchPrediction, taken: bool) -> None:
        """Restore global history after a squash: rewind to the snapshot and
        re-insert the now-known outcome."""
        self.history = ((prediction.history_snapshot << 1) | int(taken)) & self._history_mask

    @property
    def mispredict_rate(self) -> float:
        return self.mispredictions / self.predictions if self.predictions else 0.0
