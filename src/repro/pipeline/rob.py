"""Reorder buffer: the in-order spine of the machine."""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.pipeline.uop import DynInst


class ReorderBuffer:
    """A bounded FIFO of in-flight uops in fetch order."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.peak_occupancy = 0
        self._entries: deque[DynInst] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DynInst]:
        return iter(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def head(self) -> DynInst | None:
        return self._entries[0] if self._entries else None

    def push(self, uop: DynInst) -> None:
        if len(self._entries) >= self.capacity:
            raise RuntimeError("ROB overflow — dispatch must check capacity")
        self._entries.append(uop)
        if len(self._entries) > self.peak_occupancy:
            self.peak_occupancy = len(self._entries)

    def pop_head(self) -> DynInst:
        return self._entries.popleft()

    def squash_younger_than(self, seq: int) -> list[DynInst]:
        """Remove every uop with ``uop.seq > seq``, youngest first.

        Returning youngest-first is what lets the caller roll the rename map
        back correctly: undoing renames in reverse program order restores
        the mapping that existed at the squash point.
        """
        squashed: list[DynInst] = []
        # Entries are in fetch order, so the tail is the youngest: one
        # comparison settles the (common) nothing-to-squash case.
        if not self._entries or self._entries[-1].seq <= seq:
            return squashed
        while self._entries and self._entries[-1].seq > seq:
            squashed.append(self._entries.pop())
        return squashed

    def older_than(self, seq: int) -> Iterator[DynInst]:
        for uop in self._entries:
            if uop.seq >= seq:
                break
            yield uop
