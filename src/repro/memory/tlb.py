"""L1 TLB with a page-walk path and a data-oblivious probe.

Section V-B ("Virtual memory"): every load consults the TLB, and TLB
hits/misses leak.  SDO's strategy is a *single* DO variant that probes the L1
TLB only: on a hit the Obl-Ld proceeds; on a miss it continues with an
undefined translation (a guaranteed fail) and the L2 TLB / page walker is not
consulted until the load is safe.  :meth:`Tlb.probe` is that DO lookup —
presence check, no replacement update, no walk.

The simulated machine uses an identity virtual->physical mapping (a single
flat address space), so the TLB's only effect is timing and the hit/miss
channel — which is all the paper's mechanism needs.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.config import TlbConfig


class Tlb:
    """Set-associative TLB with LRU replacement."""

    def __init__(self, config: TlbConfig) -> None:
        self.config = config
        self.num_sets = max(1, config.entries // config.assoc)
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0

    def page_of(self, addr: int) -> int:
        return addr // self.config.page_size

    def _set_for(self, page: int) -> OrderedDict[int, None]:
        return self._sets[page % self.num_sets]

    def probe(self, addr: int) -> bool:
        """Data-oblivious presence check: no LRU update, no fill, no walk."""
        page = self.page_of(addr)
        return page in self._set_for(page)

    def access(self, addr: int) -> tuple[bool, int]:
        """Normal translation. Returns ``(hit, latency)``.

        A miss pays the page-walk latency and fills the entry (evicting LRU).
        """
        page = self.page_of(addr)
        entries = self._set_for(page)
        if page in entries:
            entries.move_to_end(page)
            self.hits += 1
            return True, self.config.hit_latency
        self.misses += 1
        if len(entries) >= self.config.assoc:
            entries.popitem(last=False)
        entries[page] = None
        return False, self.config.walk_latency

    def warm(self, addrs) -> None:
        """Leave the entries that ``access`` over ``addrs`` in order would.

        An empty TLB takes that final state directly: by the LRU stack
        property each set holds its ``assoc`` most recently used distinct
        pages, in last-use order.  A TLB holding entries replays the
        accesses.  Either way the hit/miss counts are the caller's to
        reset.
        """
        if any(self._sets):
            access = self.access
            for addr in addrs:
                access(addr)
            return
        page_size = self.config.page_size
        assoc = self.config.assoc
        num_sets = self.num_sets
        newest_first: list[list[int]] = [[] for _ in range(num_sets)]
        for page in dict.fromkeys([addr // page_size for addr in reversed(addrs)]):
            entries = newest_first[page % num_sets]
            if len(entries) < assoc:
                entries.append(page)
        self._sets = [OrderedDict.fromkeys(reversed(pages)) for pages in newest_first]

    def flush(self) -> None:
        for entries in self._sets:
            entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
