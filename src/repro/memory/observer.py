"""Resource-usage observation: the attacker's view of the memory system.

The paper's Definition 2 requires that executing a DO variant with operands
``args`` and ``args'`` creates *the same hardware resource interference*.
Rather than asserting this by construction, we record every observable
resource event the timing model generates — bank reservations, port grants,
MSHR allocations, state-changing fills/evictions/LRU updates, response
timings, DRAM row activity — and let the security tests compare traces.

Events carry an ``address_dependent`` payload field: for normal accesses it
holds set/bank/slice indices (the leak); for oblivious accesses it must be
``None`` or a constant.  The non-interference checker simply asserts trace
equality across addresses, so even a mistakenly leaky field shows up as a
trace mismatch — the checker does not trust the flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable


@dataclass(frozen=True)
class ResourceEvent:
    """One observable microarchitectural event."""

    cycle: int
    structure: str  # e.g. "L1D.bank", "L2.mshr", "L3.slice", "DRAM.row"
    action: str  # e.g. "reserve", "fill", "evict", "respond", "walk"
    detail: Any = None  # address-dependent payload (index, duration, ...)

    def __str__(self) -> str:
        detail = "" if self.detail is None else f" {self.detail}"
        return f"[{self.cycle}] {self.structure}.{self.action}{detail}"


class ResourceObserver:
    """Collects :class:`ResourceEvent` records.

    Disabled by default; the security harness enables it around the window
    under test.  The hierarchy tests ``enabled`` before it builds an
    event's arguments, so a performance run pays one attribute check per
    event site.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.events: list[ResourceEvent] = []

    def emit(self, cycle: int, structure: str, action: str, detail: Any = None) -> None:
        if self.enabled:
            self.events.append(ResourceEvent(cycle, structure, action, detail))

    def clear(self) -> None:
        self.events.clear()

    def trace(self, structures: Iterable[str] | None = None) -> tuple[ResourceEvent, ...]:
        """The event trace, optionally filtered to structure-name prefixes."""
        if structures is None:
            return tuple(self.events)
        prefixes = tuple(structures)
        return tuple(
            event for event in self.events
            if any(event.structure.startswith(p) for p in prefixes)
        )

    def normalized(self, base_cycle: int | None = None) -> tuple[tuple[int, str, str, Any], ...]:
        """Trace with cycles re-based, for comparing runs started at
        different absolute times."""
        if not self.events:
            return ()
        base = self.events[0].cycle if base_cycle is None else base_cycle
        return tuple(
            (event.cycle - base, event.structure, event.action, event.detail)
            for event in self.events
        )
