"""Load and store queues.

The store queue supports the disambiguation policy the core uses
(conservative: a load issues only once every older store's address is
known) and store-to-load forwarding (youngest older matching store wins).

The load queue tracks in-flight and completed-but-uncommitted loads, which
is where memory-consistency checks live: an invalidation of a line read by
such a load may require a squash (Section V-C1).  For Obl-Lds the relevant
twist is that a line read from *below* the L1 produces no invalidation at
the core at all — the validation/exposure mechanism compensates.
"""

from __future__ import annotations

from repro.pipeline.uop import DynInst, UopState

_RETIRED = UopState.RETIRED


class StoreQueue:
    """Program-ordered window of in-flight stores."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.peak_occupancy = 0
        self._entries: list[DynInst] = []  # fetch order

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def push(self, uop: DynInst) -> None:
        if len(self._entries) >= self.capacity:
            raise RuntimeError("SQ overflow — dispatch must check capacity")
        self._entries.append(uop)
        if len(self._entries) > self.peak_occupancy:
            self.peak_occupancy = len(self._entries)

    def remove(self, uop: DynInst) -> None:
        self._entries.remove(uop)

    def squash_younger_than(self, seq: int) -> None:
        if self._entries and self._entries[-1].seq > seq:
            self._entries = [u for u in self._entries if u.seq <= seq]

    def any_older_than(self, seq: int) -> bool:
        """Is any store older than ``seq`` still in flight?  O(1): entries
        are program-ordered, so only the head can be the oldest."""
        return bool(self._entries) and self._entries[0].seq < seq

    def load_scan(self, addr: int, seq: int) -> tuple[bool, DynInst | None]:
        """One walk over the stores older than a load at ``seq``: whether
        every one has computed its address (the conservative disambiguation
        gate; ``(False, None)`` as soon as one has not), and the youngest
        one writing ``addr`` (the forwarding source), if any."""
        best: DynInst | None = None
        for store in self._entries:
            if store.seq >= seq:
                break
            store_addr = store.addr
            if store_addr is None:
                return False, None
            if store_addr == addr:
                best = store
        return True, best

    def forward_source(self, addr: int, seq: int) -> DynInst | None:
        """Youngest store older than ``seq`` writing ``addr``, if any."""
        best: DynInst | None = None
        for store in self._entries:
            if store.seq >= seq:
                break
            if store.addr == addr:
                best = store
        return best


class LoadQueue:
    """Program-ordered window of in-flight loads."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.peak_occupancy = 0
        self._entries: list[DynInst] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def push(self, uop: DynInst) -> None:
        if len(self._entries) >= self.capacity:
            raise RuntimeError("LQ overflow — dispatch must check capacity")
        self._entries.append(uop)
        if len(self._entries) > self.peak_occupancy:
            self.peak_occupancy = len(self._entries)

    def remove(self, uop: DynInst) -> None:
        self._entries.remove(uop)

    def squash_younger_than(self, seq: int) -> None:
        if self._entries and self._entries[-1].seq > seq:
            self._entries = [u for u in self._entries if u.seq <= seq]

    def all_completed_before(self, seq: int) -> bool:
        """Has every load older than ``seq`` produced its value?  (The
        InvisiSpec exposure condition's load-load ordering check.)"""
        for u in self._entries:
            if u.seq >= seq:
                break
            if not u.state.done:
                return False
        return True

    def any_older_unretired(self, seq: int) -> bool:
        """Is a load older than ``seq`` still in the window (not retired)?"""
        for u in self._entries:
            if u.seq >= seq:
                break
            if u.state is not _RETIRED:
                return True
        return False

    def loads_of_line(self, line: int) -> list[DynInst]:
        """Executed loads that read ``line`` (consistency-check targets)."""
        return [
            u for u in self._entries
            if u.line == line and u.issue_cycle >= 0
        ]
