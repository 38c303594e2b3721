"""Miss status holding registers.

A cache miss allocates an MSHR; a second miss on the same line *merges* into
the existing MSHR rather than allocating a new one (Section VI-B1).  Merging
is itself a covert channel — whether a miss merges depends on the address —
so an Obl-Ld must allocate a *private* MSHR chosen address-independently
(Section VI-B2, "Storage of outstanding Obl-Ld miss state"); pass
``private=True`` for that behaviour.

The file is time-indexed: allocations carry a release cycle (when the fill
will return), and capacity at cycle ``t`` counts only allocations whose
release is after ``t``.  This matches the eager-completion style of the
timing model, which computes each request's completion cycle at issue time.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple


class MshrAllocation(NamedTuple):
    """Result of an allocation attempt (an immutable tuple: one is built
    per level a miss crosses)."""

    granted_at: int  # cycle at which the MSHR became available
    merged: bool  # True if this miss merged into an outstanding one
    release: int = 0  # when the (possibly merged-into) entry's fill returns


class MshrFile:
    """A bounded set of outstanding misses with timed release."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("MSHR file needs at least one entry")
        self.capacity = capacity
        self._releases: list[int] = []  # min-heap of release cycles
        self._by_line: dict[int, int] = {}  # line -> release cycle (mergeable entries)

    def _expire(self, now: int) -> None:
        while self._releases and self._releases[0] <= now:
            heapq.heappop(self._releases)

    def outstanding(self, now: int) -> int:
        self._expire(now)
        return len(self._releases)

    def allocate(
        self, line: int, now: int, release: int, private: bool = False
    ) -> MshrAllocation:
        """Allocate (or merge into) an MSHR for ``line``.

        Returns the cycle the entry was actually granted: if the file is full
        the request stalls until the earliest outstanding fill returns.
        ``private=True`` (the Obl-Ld rule) disables merging, so contention
        created by the entry follows only from the fact that an Obl-Ld is
        executing — never from its address.
        """
        self._expire(now)
        if not private:
            merged_release = self._by_line.get(line)
            if merged_release is not None and merged_release > now:
                return MshrAllocation(granted_at=now, merged=True, release=merged_release)
        granted = now
        while len(self._releases) >= self.capacity:
            granted = max(granted, self._releases[0])
            self._expire(granted)
        release = max(release, granted)
        heapq.heappush(self._releases, release)
        if not private:
            previous = self._by_line.get(line, 0)
            if release > previous:
                self._by_line[line] = release
        return MshrAllocation(granted_at=granted, merged=False, release=release)

    def would_merge(self, line: int, now: int) -> bool:
        release = self._by_line.get(line)
        return release is not None and release > now
