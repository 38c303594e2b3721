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
from typing import NamedTuple

from repro.common.config import CacheConfig


class EvictedLine(NamedTuple):
    """A victim pushed out by a fill (an immutable tuple)."""

    line: int
    dirty: bool


class CacheArray:
    """Tag/LRU/dirty state of one cache (one slice, all banks).

    A set's ``OrderedDict`` is allocated by the first line filled into it
    (``None`` until then reads as empty): a machine builds tens of
    thousands of sets, and most runs touch a small fraction of them.

    :meth:`install_recent` (the warm-up of an empty array) leaves its sets
    *pending*, turned into the set's ``OrderedDict`` the first time
    ``probe``, ``access``, ``fill``, ``invalidate`` or ``is_dirty`` reaches
    it.  The pending check sits on the ``None`` branch only, so an
    allocated set pays nothing for it.  Pending lines live in one flat
    list, ``assoc`` slots per set, with a list of per-set counts: a
    warm-up allocates no container per set, so it sets off no cyclic
    garbage collection however many sets it fills.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        # Per set: line -> dirty flag, insertion order == LRU order
        # (OrderedDict, least recently used first); None while empty or
        # pending.
        self._sets: list[OrderedDict[int, bool] | None] = [None] * self.num_sets
        # Pending sets from install_recent: set ``i`` holds
        # ``_pending_count[i]`` lines at ``_pending_lines[i * assoc:]``, most
        # recently used first, all with dirty flag ``_pending_dirty``;
        # ``_pending_sets`` counts the sets with any.
        self._pending_lines: list[int] = []
        self._pending_count: list[int] = []
        self._pending_sets = 0
        self._pending_dirty = False

    def set_index(self, line: int) -> int:
        return line % self.num_sets

    def bank_index(self, line: int) -> int:
        """Bank selection is address-dependent — that is the leak the
        all-banks rule of Section VI-B2 closes."""
        return line % self.config.banks

    def _pending_of(self, index: int) -> list[int]:
        """Pending set ``index``'s lines, most recently used first."""
        base = index * self.assoc
        return self._pending_lines[base : base + self._pending_count[index]]

    def _materialize(self, index: int) -> OrderedDict[int, bool] | None:
        """Build pending set ``index``'s ``OrderedDict`` (None if the set
        is not pending)."""
        if not self._pending_count[index]:
            return None
        newest_first = self._pending_of(index)
        self._pending_count[index] = 0
        self._pending_sets -= 1
        target_set = self._sets[index] = OrderedDict.fromkeys(
            reversed(newest_first), self._pending_dirty
        )
        return target_set

    def _materialize_all(self) -> None:
        if self._pending_sets:
            for index, count in enumerate(self._pending_count):
                if count:
                    self._materialize(index)

    def is_empty(self) -> bool:
        """True while no set has ever been filled (or since a flush)."""
        return not self._pending_sets and self._sets.count(None) == self.num_sets

    def install_recent(self, recent, dirty: bool = False) -> None:
        """Warm an *empty* array: ``recent`` lists distinct lines, most
        recently used first.

        By the LRU stack property, filling any stream into an empty set
        leaves exactly its ``assoc`` most recently used distinct lines, in
        last-use order.  So each set keeps the first ``assoc`` of its lines
        in ``recent``, and the walk stops once every set is full.  The
        state equals :meth:`fill_many` over any stream whose distinct
        lines in last-use order are ``recent``; the sets stay pending
        until first touched.
        """
        if not self.is_empty():
            raise ValueError("install_recent needs an empty array")
        num_sets = self.num_sets
        assoc = self.assoc
        lines = self._pending_lines = [0] * (num_sets * assoc)
        counts = self._pending_count = [0] * num_sets
        pending_sets = full = 0
        for line in recent:
            index = line % num_sets
            count = counts[index]
            if count == assoc:
                continue
            lines[index * assoc + count] = line
            counts[index] = count = count + 1
            if count == 1:
                pending_sets += 1
            if count == assoc:
                full += 1
                if full == num_sets:
                    break
        self._pending_sets = pending_sets
        self._pending_dirty = dirty

    def probe(self, line: int) -> bool:
        """Presence check with no state change (the DO lookup)."""
        index = line % self.num_sets
        target_set = self._sets[index]
        if target_set is None and self._pending_sets:
            target_set = self._materialize(index)
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
        if target_set is None and self._pending_sets:
            target_set = self._materialize(index)
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
        if target_set is None and self._pending_sets:
            target_set = self._materialize(index)
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
        eviction — the warm-up path of an array that already holds lines.
        """
        self._materialize_all()
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
        index = line % self.num_sets
        target_set = self._sets[index]
        if target_set is None and self._pending_sets:
            target_set = self._materialize(index)
        if target_set is not None and line in target_set:
            del target_set[line]
            return True
        return False

    def is_dirty(self, line: int) -> bool:
        index = line % self.num_sets
        target_set = self._sets[index]
        if target_set is None and self._pending_sets:
            target_set = self._materialize(index)
        return target_set is not None and target_set.get(line, False)

    def set_items(self, index: int) -> list[tuple[int, bool]]:
        """Set ``index``'s ``(line, dirty)`` items, least recently used
        first (test/diagnostic helper; materializes a pending set)."""
        target_set = self._sets[index]
        if target_set is None and self._pending_sets:
            target_set = self._materialize(index)
        return list(target_set.items()) if target_set is not None else []

    def resident_lines(self) -> set[int]:
        """All lines currently present (test/diagnostic helper)."""
        lines: set[int] = set()
        if self._pending_sets:
            for index, count in enumerate(self._pending_count):
                if count:
                    lines.update(self._pending_of(index))
        for target_set in self._sets:
            if target_set is not None:
                lines.update(target_set)
        return lines

    def occupancy(self) -> int:
        pending = sum(self._pending_count) if self._pending_sets else 0
        return pending + sum(len(s) for s in self._sets if s is not None)

    def flush(self) -> None:
        self._sets = [None] * self.num_sets
        self._pending_lines = []
        self._pending_count = []
        self._pending_sets = 0

    def __repr__(self) -> str:
        return (
            f"CacheArray({self.config.name}, {self.num_sets} sets x "
            f"{self.assoc} ways, {self.occupancy()} lines resident)"
        )
