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

from bisect import bisect_left
from collections import OrderedDict
from itertools import compress
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
    allocated set pays nothing for it.  Pending lines live in one list of
    the lines the warm-up kept, grouped by set in set order (each set's
    most recently used first), beside one byte per set counting its
    pending lines: a set's run is found by bisection on the set index
    only when its count says it is pending.  The storage follows the warm
    set, not the array's capacity, and a warm-up allocates no container
    per set, so it sets off no cyclic garbage collection however many
    sets it fills.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        # Per set: line -> dirty flag, insertion order == LRU order
        # (OrderedDict, least recently used first); None while empty or
        # pending.
        self._sets: list[OrderedDict[int, bool] | None] = [None] * self.num_sets
        # Pending sets from install_recent: the kept lines sorted by set
        # index (stable, so each set's run is most recently used first), all
        # with dirty flag ``_pending_dirty``; set ``i`` has
        # ``_pending_count[i]`` of them (0 once it materializes) and
        # ``_pending_sets`` counts the sets with any.
        self._pending_lines: list[int] = []
        self._pending_count: bytearray | list[int] = bytearray()
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
        pending = self._pending_lines
        lo = bisect_left(pending, index, key=self.num_sets.__rmod__)
        return pending[lo : lo + self._pending_count[index]]

    def _materialize(self, index: int) -> OrderedDict[int, bool] | None:
        """Build pending set ``index``'s ``OrderedDict`` (None if the set
        is not pending).  Called only while some set is pending."""
        if not self._pending_count[index]:
            return None
        newest_first = self._pending_of(index)
        self._pending_count[index] = 0
        self._pending_sets -= 1
        if not self._pending_sets:
            self._pending_lines = []
            self._pending_count = bytearray()
        target_set = self._sets[index] = OrderedDict.fromkeys(
            reversed(newest_first), self._pending_dirty
        )
        return target_set

    def _pending_indices(self) -> list[int]:
        """The sets still pending, in set order."""
        if not self._pending_sets:
            return []
        return list(compress(range(self.num_sets), self._pending_count))

    def _materialize_all(self) -> None:
        for index in self._pending_indices():
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
        until first touched.  The kept lines are stored once, sorted by
        set, with a byte per set counting them: storage grows with the
        lines kept, not with the capacity.
        """
        if not self.is_empty():
            raise ValueError("install_recent needs an empty array")
        num_sets = self.num_sets
        assoc = self.assoc
        capacity = num_sets * assoc
        # A byte counts a set's lines up to 255 ways; wider sets count in a list.
        counts = bytearray(num_sets) if assoc < 256 else [0] * num_sets
        kept: list[int] = []
        keep = kept.append
        for line in recent:
            index = line % num_sets
            count = counts[index]
            if count == assoc:
                continue
            keep(line)
            counts[index] = count = count + 1
            if count == assoc and len(kept) == capacity:
                break
        kept.sort(key=num_sets.__rmod__)
        self._pending_lines = kept
        self._pending_count = counts
        self._pending_sets = num_sets - counts.count(0)
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
        for index in self._pending_indices():
            lines.update(self._pending_of(index))
        for target_set in self._sets:
            if target_set is not None:
                lines.update(target_set)
        return lines

    def occupancy(self) -> int:
        pending = sum(self._pending_count)
        return pending + sum(len(s) for s in self._sets if s is not None)

    def flush(self) -> None:
        self._sets = [None] * self.num_sets
        self._pending_lines = []
        self._pending_count = bytearray()
        self._pending_sets = 0

    def __repr__(self) -> str:
        return (
            f"CacheArray({self.config.name}, {self.num_sets} sets x "
            f"{self.assoc} ways, {self.occupancy()} lines resident)"
        )
