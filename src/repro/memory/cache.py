"""Set-associative cache arrays with banking and LRU replacement.

:class:`CacheArray` is purely structural: it tracks which lines are present,
their LRU order, and dirty bits.  It exposes two lookup flavours:

* :meth:`CacheArray.access` — a *normal* access: promotes the line in LRU
  order on a hit, and on a miss (with ``fill=True``) allocates the line,
  possibly evicting the LRU victim.  This is the state-changing path.
* :meth:`CacheArray.probe` — a *data-oblivious check*: reports presence
  without touching LRU state, dirty bits, or contents.  This is the lookup an
  Obl-Ld variant performs ("only checks if there is a tag match ... makes no
  address-dependent state changes", Section V-B).

Data *values* are not stored here — the simulator keeps values in a
functional memory image (see DESIGN.md §5.2); the cache tracks only
presence/recency/dirtiness, which is all the timing and security models need.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.common.config import CacheConfig


@dataclass(frozen=True)
class EvictedLine:
    """A victim pushed out by a fill."""

    line: int
    dirty: bool


class CacheArray:
    """Tag/LRU/dirty state of one cache (one slice, all banks).

    A set's ``OrderedDict`` is allocated by the first line filled into it
    (``None`` until then reads as empty): a machine builds tens of
    thousands of sets, and most runs touch a small fraction of them.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        # Per set: line -> dirty flag, insertion order == LRU order
        # (OrderedDict, least recently used first); None while empty.
        self._sets: list[OrderedDict[int, bool] | None] = [None] * self.num_sets

    def set_index(self, line: int) -> int:
        return line % self.num_sets

    def bank_index(self, line: int) -> int:
        """Bank selection is address-dependent — that is the leak the
        all-banks rule of Section VI-B2 closes."""
        return line % self.config.banks

    def _allocated_sets(self) -> list[OrderedDict[int, bool]]:
        return [s for s in self._sets if s is not None]

    def probe(self, line: int) -> bool:
        """Presence check with no state change (the DO lookup)."""
        target_set = self._sets[line % self.num_sets]
        return target_set is not None and line in target_set

    def access(
        self, line: int, write: bool = False, fill: bool = True
    ) -> tuple[bool, EvictedLine | None]:
        """Normal access. Returns ``(hit, evicted)``.

        On hit: promote to MRU, set dirty on writes.  On miss with ``fill``:
        insert the line (dirty iff write, i.e. write-allocate), evicting the
        LRU way if the set is full.
        """
        index = line % self.num_sets
        target_set = self._sets[index]
        if target_set is not None and line in target_set:
            dirty = target_set.pop(line) or write
            target_set[line] = dirty
            return True, None
        if not fill:
            return False, None
        if target_set is None:
            target_set = self._sets[index] = OrderedDict()
        evicted = None
        if len(target_set) >= self.assoc:
            victim_line, victim_dirty = target_set.popitem(last=False)
            evicted = EvictedLine(victim_line, victim_dirty)
        target_set[line] = write
        return False, evicted

    def fill(self, line: int, dirty: bool = False) -> EvictedLine | None:
        """Insert a line (used for fills coming back from lower levels)."""
        index = line % self.num_sets
        target_set = self._sets[index]
        if target_set is None:
            target_set = self._sets[index] = OrderedDict()
        elif line in target_set:
            existing = target_set.pop(line)
            target_set[line] = existing or dirty
            return None
        evicted = None
        if len(target_set) >= self.assoc:
            victim_line, victim_dirty = target_set.popitem(last=False)
            evicted = EvictedLine(victim_line, victim_dirty)
        target_set[line] = dirty
        return evicted

    def fill_many(self, lines, dirty: bool = False) -> None:
        """``fill`` every line in order, discarding the victims.

        Leaves exactly the state of the per-line calls (contents, LRU
        order, dirty bits) without building an :class:`EvictedLine` per
        eviction — the batched warm-up path.
        """
        sets = self._sets
        num_sets = self.num_sets
        assoc = self.assoc
        for line in lines:
            index = line % num_sets
            target_set = sets[index]
            if target_set is None:
                target_set = sets[index] = OrderedDict()
            elif line in target_set:
                target_set.move_to_end(line)
                if dirty:
                    target_set[line] = True
                continue
            elif len(target_set) >= assoc:
                target_set.popitem(last=False)
            target_set[line] = dirty

    def invalidate(self, line: int) -> bool:
        """Remove a line (coherence invalidation). Returns True if present."""
        target_set = self._sets[line % self.num_sets]
        if target_set is not None and line in target_set:
            del target_set[line]
            return True
        return False

    def is_dirty(self, line: int) -> bool:
        target_set = self._sets[line % self.num_sets]
        return target_set is not None and target_set.get(line, False)

    def resident_lines(self) -> set[int]:
        """All lines currently present (test/diagnostic helper)."""
        lines: set[int] = set()
        for target_set in self._allocated_sets():
            lines.update(target_set)
        return lines

    def occupancy(self) -> int:
        return sum(len(s) for s in self._allocated_sets())

    def flush(self) -> None:
        for target_set in self._allocated_sets():
            target_set.clear()

    def __repr__(self) -> str:
        return (
            f"CacheArray({self.config.name}, {self.num_sets} sets x "
            f"{self.assoc} ways, {self.occupancy()} lines resident)"
        )
