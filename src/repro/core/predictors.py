"""Location predictors for the Obl-Ld (Section V-D).

A location predictor maps a load's static PC to a predicted memory level
``j``.  Terminology (suppose the data is really at level ``i``):

* **accurate and precise**: ``i == j`` — the ideal;
* **accurate but imprecise**: ``i < j`` — correct data, but the Obl-Ld
  waits for a deeper lookup than needed;
* **not accurate**: ``i > j`` — the DO variant fails, potentially a squash.

Predictors evaluated in the paper (Table II):

* ``Static L1/L2/L3`` — always predict one level;
* ``Hybrid`` — chooses per-PC between a *greedy* component (predict the
  deepest level seen in the last ``m`` instances; favours imprecision over
  inaccuracy) and a *loop* component (learns "one L1 miss every N accesses"
  stride patterns), via a saturating confidence counter.  4 KB of state.
* ``Perfect`` — an oracle that asks the cache model where the line is.

Predictor inputs are PCs and resolved levels only — never addresses or data
— which is what makes predictions safe to act on under STT (Section III-B).
"""

from __future__ import annotations

from collections import deque

from repro.common.config import MemLevel, PredictorKind

_L1 = MemLevel.L1
_L2 = MemLevel.L2


class LocationPredictor:
    """Interface: ``predict`` may not see anything tainted."""

    name = "base"

    def predict(self, pc: int, oracle_hint: MemLevel | None = None) -> MemLevel:
        """Predict the level for the load at ``pc``.

        ``oracle_hint`` is supplied by the simulator and used *only* by the
        Perfect predictor (it stands in for hardware that cannot exist);
        real predictors must ignore it.
        """
        raise NotImplementedError

    def update(self, pc: int, actual: MemLevel) -> None:
        raise NotImplementedError


class StaticPredictor(LocationPredictor):
    """Always predicts a fixed level."""

    def __init__(self, level: MemLevel) -> None:
        if level is MemLevel.DRAM:
            raise ValueError("no DO variant exists for DRAM (Section VI-B2)")
        self.level = level
        self.name = f"Static {level.pretty}"

    def predict(self, pc: int, oracle_hint: MemLevel | None = None) -> MemLevel:
        return self.level

    def update(self, pc: int, actual: MemLevel) -> None:
        """Stateless."""


class GreedyPredictor(LocationPredictor):
    """Predicts the deepest level seen in the last ``m`` dynamic instances
    of the load — pattern 1 of Section V-D (coarse-grained level changes).
    Deliberately favours imprecision over inaccuracy."""

    name = "Greedy"

    def __init__(self, window: int = 4) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self._history: dict[int, deque[MemLevel]] = {}

    def predict(self, pc: int, oracle_hint: MemLevel | None = None) -> MemLevel:
        history = self._history.get(pc)
        if not history:
            return _L1
        return max(history)

    def update(self, pc: int, actual: MemLevel) -> None:
        history = self._history.get(pc)
        if history is None:
            history = deque(maxlen=self.window)
            self._history[pc] = history
        history.append(actual)


class LoopPredictor(LocationPredictor):
    """Predicts periodic "L1, L1, ..., L1, L2" stride patterns — pattern 2
    of Section V-D (one lower-level miss per N sequential accesses).

    Per PC it learns the interval between non-L1 accesses like a loop branch
    predictor: the interval becomes trusted after being seen twice in a row.
    """

    name = "Loop"

    def __init__(self) -> None:
        # pc -> [count since last non-L1, learned period, candidate period,
        #        deep level, confident]
        self._state: dict[int, list] = {}

    def predict(self, pc: int, oracle_hint: MemLevel | None = None) -> MemLevel:
        state = self._state.get(pc)
        if state is None:
            return _L1
        count, period, _, deep_level, confident = state
        if confident and period > 0 and count + 1 >= period:
            return deep_level
        if confident and period == 1:
            return deep_level
        return _L1

    def update(self, pc: int, actual: MemLevel) -> None:
        state = self._state.get(pc)
        if state is None:
            state = self._state[pc] = [0, 0, 0, _L2, False]
        if actual is _L1:
            state[0] += 1
            return
        interval = state[0] + 1
        state[0] = 0
        state[3] = actual
        if interval == state[2]:
            state[1] = interval
            state[4] = True
        else:
            state[4] = False
        state[2] = interval


class HybridPredictor(LocationPredictor):
    """Greedy + Loop behind a per-PC saturating confidence chooser.

    The chooser scores each component on every resolved outcome — precise
    beats accurate beats inaccurate — and drifts toward the better one.
    Total state for the evaluated sizing is ~4 KB (paper, Section VIII-A):
    1K PC entries x (2b chooser + greedy window + loop interval state).
    """

    name = "Hybrid"

    def __init__(self, window: int = 4, chooser_bits: int = 2, entries: int = 1024) -> None:
        self.greedy = GreedyPredictor(window)
        self.loop = LoopPredictor()
        self._chooser: dict[int, int] = {}
        self._chooser_max = (1 << chooser_bits) - 1
        self._entries_mask = entries - 1
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        # Remember each component's outstanding prediction for scoring.
        self._last: dict[int, tuple[MemLevel, MemLevel]] = {}

    def _key(self, pc: int) -> int:
        return pc & self._entries_mask

    def predict(self, pc: int, oracle_hint: MemLevel | None = None) -> MemLevel:
        greedy_pred = self.greedy.predict(pc)
        loop_pred = self.loop.predict(pc)
        self._last[self._key(pc)] = (greedy_pred, loop_pred)
        use_loop = self._chooser.get(self._key(pc), self._chooser_max // 2) > self._chooser_max // 2
        return loop_pred if use_loop else greedy_pred

    @staticmethod
    def _score(predicted: MemLevel, actual: MemLevel) -> int:
        if predicted == actual:
            return 2  # accurate and precise
        if predicted > actual:
            return 1  # accurate but imprecise
        return 0  # not accurate (would fail)

    def update(self, pc: int, actual: MemLevel) -> None:
        key = self._key(pc)
        last = self._last.get(key)
        if last is not None:
            greedy_score = self._score(last[0], actual)
            loop_score = self._score(last[1], actual)
            if greedy_score != loop_score:
                counter = self._chooser.get(key, self._chooser_max // 2)
                counter += 1 if loop_score > greedy_score else -1
                self._chooser[key] = max(0, min(self._chooser_max, counter))
        self.greedy.update(pc, actual)
        self.loop.update(pc, actual)


class PerfectPredictor(LocationPredictor):
    """Oracle: always predicts the true current residence level.

    Exists to bound SDO's potential (Section VIII-B, "Perfect").  Relies on
    the ``oracle_hint`` the simulator passes in; it has no learnable state.
    A DRAM hint is passed through unchanged — the protection layer turns it
    into a delay, so even the oracle never squashes *and* never touches
    DRAM obliviously.
    """

    name = "Perfect"

    def predict(self, pc: int, oracle_hint: MemLevel | None = None) -> MemLevel:
        if oracle_hint is None:
            raise ValueError("PerfectPredictor requires the oracle hint")
        return oracle_hint

    def update(self, pc: int, actual: MemLevel) -> None:
        """Oracles do not learn."""


def make_predictor(kind: PredictorKind) -> LocationPredictor:
    """Factory for the Table II predictor configurations."""
    if kind is PredictorKind.STATIC_L1:
        return StaticPredictor(MemLevel.L1)
    if kind is PredictorKind.STATIC_L2:
        return StaticPredictor(MemLevel.L2)
    if kind is PredictorKind.STATIC_L3:
        return StaticPredictor(MemLevel.L3)
    if kind is PredictorKind.HYBRID:
        return HybridPredictor()
    if kind is PredictorKind.PERFECT:
        return PerfectPredictor()
    raise ValueError(f"unknown predictor kind: {kind}")
