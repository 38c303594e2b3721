"""The composed memory hierarchy: L1D -> L2 -> sliced L3 -> DRAM, plus TLB.

This is the timing engine behind the core's load/store unit.  Requests are
resolved *eagerly*: the hierarchy computes the completion cycle of a request
at issue time, accounting for port and bank contention (FIFO servers), MSHR
capacity, mesh distance, and DRAM row-buffer state.  The core then schedules
the writeback at that cycle.  This style keeps the model fast while
preserving the contention effects the paper measures.

Two access paths:

``load`` / ``store`` / ``validate``
    The normal, address-dependent path: bank selection by address, MSHR
    merging, LRU updates and fills, slice selection by address hash, DRAM
    row-buffer timing.

``oblivious_load``
    The Obl-Ld path of Sections V-B/VI-B2: a serial walk of tag *probes*
    from the L1 down to the predicted level; each level's lookup reserves
    **all** banks (all slices for the L3), allocates a *private* MSHR at an
    address-independent slot, changes no cache state, and responds after the
    level's fixed latency.  The returned per-level response schedule is what
    the core's wait buffer consumes.

``speculative_load`` / ``release_speculative`` / ``drop_speculative``
    The transparent-speculation path (SpecBox-style label-based schemes):
    the load executes with its real address-dependent timing — banks, ports,
    MSHRs and the DRAM row buffer are all used for real — but **no cache
    array state changes**; the fetched line parks in a per-core speculative
    buffer instead.  ``release_speculative`` merges the line into the caches
    when the load commits; ``drop_speculative`` discards it on squash,
    leaving no cache-state trace.  Note what this path deliberately does
    *not* hide: transient DRAM row-buffer state and bank/MSHR contention
    remain address-dependent, which is exactly the residual channel the
    forward-interference harness measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.common.config import CacheConfig, MachineConfig, MemLevel
from repro.common.stats import StatGroup
from repro.memory.cache import CacheArray
from repro.memory.coherence import Directory
from repro.memory.dram import Dram
from repro.memory.interconnect import Mesh, lines_by_slice, slice_node, slice_of_line
from repro.memory.mshr import MshrFile
from repro.memory.observer import ResourceObserver
from repro.memory.tlb import Tlb

# The levels bound once as module globals: every access returns one, and a
# class-level read of an enum member is slow on Python 3.11.
_L1, _L2, _L3, _DRAM = MemLevel.L1, MemLevel.L2, MemLevel.L3, MemLevel.DRAM

#: Cycles a lookup occupies its cache bank (pipeline occupancy, not latency).
BANK_OCCUPANCY = 1

#: Literal stat-counter names per residence level, precomputed so every
#: bumped key is a static string (the ``stat-key`` lint checker extracts
#: these; an f-string here would silently fork a counter on a typo).
_HIT_COUNTERS = {
    MemLevel.L1: "hits_l1",
    MemLevel.L2: "hits_l2",
    MemLevel.L3: "hits_l3",
    MemLevel.DRAM: "hits_dram",
}
_OBL_PRED_COUNTERS = {
    MemLevel.L1: "obl_pred_l1",
    MemLevel.L2: "obl_pred_l2",
    MemLevel.L3: "obl_pred_l3",
    MemLevel.DRAM: "obl_pred_dram",
}
#: Cycles an oblivious lookup holds *all* banks of a level (Section VI-B2:
#: "after the Obl-Ld enters the cache, all succeeding requests are blocked
#: until the Obl-Ld request completes its lookup").
OBL_BANK_OCCUPANCY = 2


class _BankSet:
    """Per-bank FIFO servers: each bank serves one request at a time."""

    def __init__(self, banks: int) -> None:
        self._free_at = [0] * banks

    def reserve(self, bank: int, earliest: int, duration: int) -> int:
        """Reserve one bank; returns the granted start cycle."""
        free_at = self._free_at[bank]
        start = earliest if earliest >= free_at else free_at
        self._free_at[bank] = start + duration
        return start

    def reserve_all(self, earliest: int, duration: int) -> int:
        """Reserve every bank simultaneously (the Obl-Ld rule)."""
        start = max(earliest, max(self._free_at))
        for bank in range(len(self._free_at)):
            self._free_at[bank] = start + duration
        return start


class _PortScheduler:
    """At most ``ports`` request grants per cycle.

    Per-cycle usage counts are pruned once grants move far enough ahead, to
    bound memory over long runs.  Pruning raises ``_floor``, a monotone lower
    bound below which usage is no longer tracked: requests asking for a
    pruned cycle are clamped up to the floor rather than re-granted into
    cycles whose (discarded) counts may already have been full.
    """

    def __init__(self, ports: int) -> None:
        self.ports = ports
        self._used: dict[int, int] = {}
        self._horizon = 0
        self._floor = 0

    def grant(self, earliest: int) -> int:
        cycle = earliest if earliest >= self._floor else self._floor
        used = self._used
        while used.get(cycle, 0) >= self.ports:
            cycle += 1
        used[cycle] = used.get(cycle, 0) + 1
        if cycle > self._horizon + 4096:
            self._floor = cycle - 64
            self._used = {c: n for c, n in self._used.items() if c >= self._floor}
            self._horizon = cycle
        return cycle


class LoadResponse(NamedTuple):
    """Completion of a normal (or validation) load (an immutable tuple, as
    cheap to build as one)."""

    complete_at: int
    level: MemLevel  # where the data was found
    tlb_hit: bool
    mshr_merged: bool = False


class OblLoadResponse(NamedTuple):
    """Completion schedule of an oblivious load (an immutable tuple).

    ``responses`` lists ``(level, cycle, hit)`` for every level looked up, in
    L1-to-predicted order — caches respond in order (footnote 2 of the
    paper), which is what makes early forwarding sound.  ``actual_level`` is
    where the data really lives *now* (DRAM if uncached); ``success`` is the
    Definition-1 flag: data found at or above the predicted level and the
    DO TLB probe hit.
    """

    predicted_level: MemLevel
    actual_level: MemLevel
    success: bool
    tlb_hit: bool
    responses: tuple[tuple[MemLevel, int, bool], ...]
    complete_at: int

    def first_success_cycle(self) -> int | None:
        """Cycle at which a success response (with all earlier levels'
        responses already in) reaches the wait buffer; None if all fail."""
        for _, cycle, hit in self.responses:
            if hit:
                return cycle
        return None


@dataclass
class _Level:
    """One private cache level's timing state."""

    config: CacheConfig
    array: CacheArray
    banks: _BankSet
    ports: _PortScheduler
    mshrs: MshrFile


class MemoryHierarchy:
    """Single-core view of the memory system (core 0 of ``num_cores``)."""

    def __init__(
        self,
        config: MachineConfig,
        observer: ResourceObserver | None = None,
        num_cores: int = 1,
        core_id: int = 0,
    ) -> None:
        self.config = config
        self._line_size = config.line_size
        self.observer = observer or ResourceObserver(enabled=False)
        self.core_id = core_id
        self.stats = StatGroup("mem")

        self.l1 = self._make_level(config.l1d)
        self.l2 = self._make_level(config.l2)
        # The L3 is sliced: one array + bank set per slice, a shared port
        # scheduler per slice, and one MSHR file between L2 and L3.
        self.l3_slices = [
            _Level(
                config.l3,
                CacheArray(config.l3),
                _BankSet(config.l3.banks),
                _PortScheduler(config.l3.ports),
                MshrFile(config.l3.mshrs),
            )
            for _ in range(config.l3.slices)
        ]
        self.tlb = Tlb(config.tlb)
        self.dram = Dram(config.dram, line_size=config.line_size)
        self.mesh = Mesh(config.mesh_dims, config.mesh_hop_latency)
        self.directory = Directory(num_cores)
        self._core_node = core_id % self.mesh.num_nodes
        # One-way mesh latency from this core to each L3 slice.
        self._slice_wire = [
            self.mesh.latency(self._core_node, slice_node(index, self.mesh))
            for index in range(config.l3.slices)
        ]
        self._obl_l3_round_trip = self.mesh.max_round_trip(self._core_node)
        # Speculative buffer (transparent-speculation path): line -> count
        # of in-flight buffered loads holding it.  Capacity is bounded by
        # the LQ (every entry belongs to an in-flight load), so no separate
        # eviction policy is needed.
        self._spec_buffer: dict[int, int] = {}

    @staticmethod
    def _make_level(config: CacheConfig) -> _Level:
        return _Level(
            config,
            CacheArray(config),
            _BankSet(config.banks),
            _PortScheduler(config.ports),
            MshrFile(config.mshrs),
        )

    # ------------------------------------------------------------------ #
    # Address helpers
    # ------------------------------------------------------------------ #

    def line_of(self, addr: int) -> int:
        return addr // self._line_size

    def slice_of(self, line: int) -> int:
        return slice_of_line(line, self.config.l3.slices)

    def residence_level(self, addr: int) -> MemLevel:
        """Where a load for ``addr`` would find its data right now.

        This is the oracle the Perfect predictor consults and the ground
        truth for precision/accuracy accounting (Section V-D).
        """
        line = self.line_of(addr)
        if self.l1.array.probe(line):
            return _L1
        if self.l2.array.probe(line):
            return _L2
        if self.l3_slices[self.slice_of(line)].array.probe(line):
            return _L3
        return _DRAM

    def line_in_l1(self, addr: int) -> bool:
        return self.l1.array.probe(self.line_of(addr))

    # ------------------------------------------------------------------ #
    # Normal (address-dependent) path
    # ------------------------------------------------------------------ #

    def load(self, addr: int, now: int, write: bool = False) -> LoadResponse:
        """A normal, state-changing memory access.

        Used for untainted loads, committed stores (``write=True``),
        validations, and exposures — all of which legitimately reveal the
        address through their resource usage.
        """
        self.stats.bump("stores" if write else "loads")
        line = self.line_of(addr)
        tlb_hit, tlb_latency = self.tlb.access(addr)
        if not tlb_hit and self.observer.enabled:
            self.observer.emit(now, "TLB", "walk", self.tlb.page_of(addr))
        cursor = now + tlb_latency

        level_found, cursor = self._walk_caches(line, cursor, write)
        self.stats.bump(_HIT_COUNTERS[level_found])
        return LoadResponse(
            complete_at=cursor, level=level_found, tlb_hit=tlb_hit
        )

    def store(self, addr: int, now: int) -> LoadResponse:
        return self.load(addr, now, write=True)

    def validate(self, addr: int, now: int) -> LoadResponse:
        """InvisiSpec-style validation: a standard access that brings the
        line into the L1 (Section V-C1)."""
        self.stats.bump("validations")
        return self.load(addr, now)

    def expose(self, addr: int, now: int) -> LoadResponse:
        """Exposure: same cache effects as a validation, but the caller does
        not wait for it (asynchronous fill)."""
        self.stats.bump("exposures")
        return self.load(addr, now)

    def _walk_caches(
        self, line: int, cursor: int, write: bool
    ) -> tuple[MemLevel, int]:
        """Address-dependent walk: L1 -> L2 -> L3(slice) -> DRAM with fills.

        MSHR entries are allocated at every level the miss crosses, with a
        release at the walk's final completion cycle.  If an MSHR file is
        full when the miss reaches it, the stall is added to the completion
        time (a small approximation: the stall delays this request rather
        than re-ordering the whole walk).
        """
        # --- L1 ---
        l1 = self.l1
        grant = l1.ports.grant(cursor)
        start = l1.banks.reserve(l1.array.bank_index(line), grant, BANK_OCCUPANCY)
        if self.observer.enabled:
            self.observer.emit(start, "L1D.bank", "reserve", l1.array.bank_index(line))
        hit, evicted = l1.array.access(line, write)
        cursor = start + l1.config.latency
        if hit:
            if self.observer.enabled:
                self.observer.emit(cursor, "L1D", "respond", l1.array.set_index(line))
            return _L1, cursor
        self._note_eviction(evicted, self.l2, cursor, "L1D")
        if self.l1.mshrs.would_merge(line, cursor):
            # A fill for this very line is already in flight: merge into it
            # and complete when it returns (Section VI-B1).
            self.stats.bump("mshr_merges")
            merge = self.l1.mshrs.allocate(line, cursor, cursor)
            return _L2, max(cursor, merge.release)
        misses_crossed: list[MshrFile] = [self.l1.mshrs]

        # --- L2 ---
        grant = self.l2.ports.grant(cursor)
        start = self.l2.banks.reserve(self.l2.array.bank_index(line), grant, BANK_OCCUPANCY)
        if self.observer.enabled:
            self.observer.emit(start, "L2.bank", "reserve", self.l2.array.bank_index(line))
        hit, evicted = self.l2.array.access(line, write=write)
        cursor = start + self.l2.config.latency
        if hit:
            if self.observer.enabled:
                self.observer.emit(cursor, "L2", "respond", self.l2.array.set_index(line))
                self.observer.emit(cursor, "L1D", "fill", self.l1.array.set_index(line))
            cursor = self._allocate_miss_mshrs(misses_crossed, line, start, cursor)
            return _L2, cursor
        self._note_eviction(evicted, None, cursor, "L2")
        misses_crossed.append(self.l2.mshrs)

        # --- L3 slice (over the mesh) ---
        slice_index = self.slice_of(line)
        slice_level = self.l3_slices[slice_index]
        wire = self._slice_wire[slice_index]
        arrive = cursor + wire
        grant = slice_level.ports.grant(arrive)
        start = slice_level.banks.reserve(
            slice_level.array.bank_index(line), grant, BANK_OCCUPANCY
        )
        if self.observer.enabled:
            self.observer.emit(
                start, "L3.slice", "reserve", (slice_index, slice_level.array.bank_index(line))
            )
        hit, evicted = slice_level.array.access(line, write=write)
        cursor = start + slice_level.config.latency + wire  # response travels back
        if hit:
            if self.observer.enabled:
                self.observer.emit(cursor, "L3", "respond", slice_index)
                self.observer.emit(cursor, "L2", "fill", self.l2.array.set_index(line))
                self.observer.emit(cursor, "L1D", "fill", self.l1.array.set_index(line))
            cursor = self._allocate_miss_mshrs(misses_crossed, line, start, cursor)
            return _L3, cursor
        self._note_eviction(evicted, None, cursor, "L3")
        misses_crossed.append(slice_level.mshrs)

        # --- DRAM ---
        dram_latency = self.dram.access(line)
        if self.observer.enabled:
            self.observer.emit(
                cursor, "DRAM.row", "access", (self.dram.bank_of(line), self.dram.row_of(line))
            )
        cursor += dram_latency
        if self.observer.enabled:
            self.observer.emit(cursor, "L2", "fill", self.l2.array.set_index(line))
            self.observer.emit(cursor, "L1D", "fill", self.l1.array.set_index(line))
        cursor = self._allocate_miss_mshrs(misses_crossed, line, cursor, cursor)
        return _DRAM, cursor

    def _allocate_miss_mshrs(
        self, files: list[MshrFile], line: int, now: int, fill_at: int
    ) -> int:
        """Allocate MSHRs at every level a miss crossed; the entries release
        when the fill returns.  Returns the (possibly stall-extended)
        completion cycle."""
        completion = fill_at
        for mshr_file in files:
            alloc = mshr_file.allocate(line, now, fill_at)
            if alloc.granted_at > now:
                self.stats.bump("mshr_stalls")
                completion += alloc.granted_at - now
        return completion

    def _note_eviction(self, evicted, next_level: _Level | None, cycle: int, name: str) -> None:
        if evicted is None:
            return
        self.stats.bump("evictions")
        if self.observer.enabled:
            self.observer.emit(cycle, name, "evict", evicted.line)
        if not evicted.dirty:
            return
        self.stats.bump("writebacks")
        if next_level is not None:
            # Dirty L1 victim written back into the L2.
            bank = next_level.array.bank_index(evicted.line)
            next_level.banks.reserve(bank, cycle, BANK_OCCUPANCY)
            next_level.array.fill(evicted.line, dirty=True)
        elif name == "L2":
            # Dirty L2 victim written back into its L3 slice.
            victim_slice = self.l3_slices[self.slice_of(evicted.line)]
            bank = victim_slice.array.bank_index(evicted.line)
            victim_slice.banks.reserve(bank, cycle, BANK_OCCUPANCY)
            victim_slice.array.fill(evicted.line, dirty=True)
        # A dirty L3 victim goes to DRAM; no cache state to update.

    # ------------------------------------------------------------------ #
    # Transparent-speculation path (SpecBox-style speculative buffer)
    # ------------------------------------------------------------------ #

    def speculative_load(self, addr: int, now: int) -> LoadResponse:
        """A speculative load whose cache side effects are confined.

        Timing mirrors the normal path — same TLB access, port grants, bank
        reservations, MSHR allocations and DRAM row-buffer timing — but the
        cache arrays are only *probed*, never filled or LRU-promoted.  The
        fetched line parks in the speculative buffer; later buffered loads
        of the same line hit it at L1 latency.  The caller must pair every
        call with ``release_speculative`` (commit) or ``drop_speculative``
        (squash).
        """
        self.stats.bump("spec_loads")
        line = self.line_of(addr)
        tlb_hit, tlb_latency = self.tlb.access(addr)
        if not tlb_hit and self.observer.enabled:
            self.observer.emit(now, "TLB", "walk", self.tlb.page_of(addr))
        cursor = now + tlb_latency

        if self._spec_buffer.get(line, 0) > 0:
            # Buffer hit: served beside the L1, paying an L1 port/bank slot
            # (the buffer is probed through the same load pipe).
            self.stats.bump("spec_buffer_hits")
            grant = self.l1.ports.grant(cursor)
            start = self.l1.banks.reserve(
                self.l1.array.bank_index(line), grant, BANK_OCCUPANCY
            )
            if self.observer.enabled:
                self.observer.emit(start, "SpecBuf", "hit", line)
            self._spec_buffer[line] += 1
            return LoadResponse(
                complete_at=start + self.l1.config.latency,
                level=self.residence_level(addr),
                tlb_hit=tlb_hit,
            )

        level_found, cursor = self._walk_caches_transparent(line, cursor)
        self.stats.bump(_HIT_COUNTERS[level_found])
        self._spec_buffer[line] = self._spec_buffer.get(line, 0) + 1
        if self.observer.enabled:
            self.observer.emit(cursor, "SpecBuf", "insert", line)
        return LoadResponse(
            complete_at=cursor, level=level_found, tlb_hit=tlb_hit
        )

    def _walk_caches_transparent(
        self, line: int, cursor: int
    ) -> tuple[MemLevel, int]:
        """The normal walk's timing without its cache-state changes.

        Structure mirrors ``_walk_caches``: misses cross the same MSHR
        files, reserve the same banks and pay the same latencies, and a
        DRAM access opens its row for real — but ``probe`` replaces
        ``access``, so there are no fills, promotions or evictions.
        """
        # --- L1 ---
        grant = self.l1.ports.grant(cursor)
        start = self.l1.banks.reserve(self.l1.array.bank_index(line), grant, BANK_OCCUPANCY)
        if self.observer.enabled:
            self.observer.emit(start, "L1D.bank", "reserve", self.l1.array.bank_index(line))
        cursor = start + self.l1.config.latency
        if self.l1.array.probe(line):
            if self.observer.enabled:
                self.observer.emit(cursor, "L1D", "respond", self.l1.array.set_index(line))
            return _L1, cursor
        if self.l1.mshrs.would_merge(line, cursor):
            self.stats.bump("mshr_merges")
            merge = self.l1.mshrs.allocate(line, cursor, cursor)
            return _L2, max(cursor, merge.release)
        misses_crossed: list[MshrFile] = [self.l1.mshrs]

        # --- L2 ---
        grant = self.l2.ports.grant(cursor)
        start = self.l2.banks.reserve(self.l2.array.bank_index(line), grant, BANK_OCCUPANCY)
        if self.observer.enabled:
            self.observer.emit(start, "L2.bank", "reserve", self.l2.array.bank_index(line))
        cursor = start + self.l2.config.latency
        if self.l2.array.probe(line):
            if self.observer.enabled:
                self.observer.emit(cursor, "L2", "respond", self.l2.array.set_index(line))
            cursor = self._allocate_miss_mshrs(misses_crossed, line, start, cursor)
            return _L2, cursor
        misses_crossed.append(self.l2.mshrs)

        # --- L3 slice (over the mesh) ---
        slice_index = self.slice_of(line)
        slice_level = self.l3_slices[slice_index]
        wire = self._slice_wire[slice_index]
        arrive = cursor + wire
        grant = slice_level.ports.grant(arrive)
        start = slice_level.banks.reserve(
            slice_level.array.bank_index(line), grant, BANK_OCCUPANCY
        )
        if self.observer.enabled:
            self.observer.emit(
                start, "L3.slice", "reserve", (slice_index, slice_level.array.bank_index(line))
            )
        cursor = start + slice_level.config.latency + wire
        if slice_level.array.probe(line):
            if self.observer.enabled:
                self.observer.emit(cursor, "L3", "respond", slice_index)
            cursor = self._allocate_miss_mshrs(misses_crossed, line, start, cursor)
            return _L3, cursor
        misses_crossed.append(slice_level.mshrs)

        # --- DRAM (row-buffer state changes for real: the one piece of
        # shared timing state transparent speculation cannot hide) ---
        dram_latency = self.dram.access(line)
        if self.observer.enabled:
            self.observer.emit(
                cursor, "DRAM.row", "access", (self.dram.bank_of(line), self.dram.row_of(line))
            )
        cursor += dram_latency
        cursor = self._allocate_miss_mshrs(misses_crossed, line, cursor, cursor)
        return _DRAM, cursor

    def release_speculative(self, addr: int, now: int) -> None:
        """A buffered load committed: its line becomes architecturally
        visible, merging from the speculative buffer into the caches (the
        fills a normal load would have done at issue happen here instead).
        """
        line = self.line_of(addr)
        self.stats.bump("spec_releases")
        self._spec_buffer.pop(line, None)
        if self.observer.enabled:
            self.observer.emit(now, "SpecBuf", "release", line)
        evicted = self.l1.array.fill(line, dirty=False)
        self._note_eviction(evicted, self.l2, now, "L1D")
        evicted = self.l2.array.fill(line, dirty=False)
        self._note_eviction(evicted, None, now, "L2")
        evicted = self.l3_slices[self.slice_of(line)].array.fill(line, dirty=False)
        self._note_eviction(evicted, None, now, "L3")

    def drop_speculative(self, addr: int) -> None:
        """A buffered load squashed: drop its buffer reference.  Once no
        in-flight load holds the line, the entry vanishes without ever
        touching cache state."""
        line = self.line_of(addr)
        self.stats.bump("spec_drops")
        held = self._spec_buffer.get(line, 0)
        if held <= 1:
            self._spec_buffer.pop(line, None)
        else:
            self._spec_buffer[line] = held - 1

    # ------------------------------------------------------------------ #
    # Data-oblivious path (Obl-Ld variants, Section VI-B2)
    # ------------------------------------------------------------------ #

    def oblivious_load(
        self, addr: int, predicted_level: MemLevel, now: int
    ) -> OblLoadResponse:
        """Execute the DO variant ``Obl-Ld_j`` for ``j = predicted_level``.

        Looks up every level from the L1 down to ``j`` with address-oblivious
        resource usage.  Never reaches DRAM (no DO variant exists for it);
        callers must turn DRAM predictions into delays *before* calling.
        """
        if predicted_level is _DRAM:
            raise ValueError(
                "no DO variant exists for DRAM (Section VI-B2); "
                "a DRAM prediction must fall back to delayed execution"
            )
        line = self.line_of(addr)
        self.stats.bump("obl_loads")
        self.stats.bump(_OBL_PRED_COUNTERS[predicted_level])

        # DO TLB probe: presence check only; a miss does NOT trigger a walk
        # and poisons the access into a guaranteed fail (Section V-B).
        tlb_hit = self.tlb.probe(addr)
        if self.observer.enabled:
            self.observer.emit(now, "TLB", "probe", None)  # address-independent
        if not tlb_hit:
            self.stats.bump("obl_tlb_fails")
        cursor = now + self.config.tlb.hit_latency

        actual_level = self.residence_level(addr)
        responses: list[tuple[MemLevel, int, bool]] = []

        for level in (_L1, _L2, _L3):
            if level > predicted_level:
                break
            if level is _L3:
                cursor, respond_at = self._oblivious_l3_lookup(cursor)
            else:
                target = self.l1 if level is _L1 else self.l2
                cursor, respond_at = self._oblivious_private_lookup(target, level, cursor)
            hit = tlb_hit and actual_level == level
            responses.append((level, respond_at, hit))

        success = tlb_hit and actual_level <= predicted_level
        complete_at = responses[-1][1]
        if success:
            self.stats.bump("obl_success")
        else:
            self.stats.bump("obl_fail")
        return OblLoadResponse(
            predicted_level=predicted_level,
            actual_level=actual_level,
            success=success,
            tlb_hit=tlb_hit,
            responses=tuple(responses),
            complete_at=complete_at,
        )

    def _oblivious_private_lookup(
        self, target: _Level, level: MemLevel, cursor: int
    ) -> tuple[int, int]:
        """Oblivious lookup of a private (monolithic) cache level.

        Returns ``(next_cursor, respond_at)``.  The request reserves every
        bank and a private MSHR slot; the response arrives after the level's
        full latency regardless of hit or miss.
        """
        name = "L1D" if level is _L1 else "L2"
        grant = target.ports.grant(cursor)
        start = target.banks.reserve_all(grant, OBL_BANK_OCCUPANCY)
        if self.observer.enabled:
            self.observer.emit(start, f"{name}.bank", "reserve_all", OBL_BANK_OCCUPANCY)
        respond_at = start + target.config.latency
        # Private, address-independently chosen MSHR entry held for the
        # lookup's duration (Section VI-B2).
        target.mshrs.allocate(-1, start, respond_at, private=True)
        if self.observer.enabled:
            self.observer.emit(respond_at, name, "obl_respond", None)
        return respond_at, respond_at

    def _oblivious_l3_lookup(self, cursor: int) -> tuple[int, int]:
        """Oblivious L3 lookup: broadcast to all slices, wait for all."""
        starts = []
        for index, slice_level in enumerate(self.l3_slices):
            grant = slice_level.ports.grant(cursor)
            start = slice_level.banks.reserve_all(grant, OBL_BANK_OCCUPANCY)
            if self.observer.enabled:
                self.observer.emit(start, "L3.slice", "reserve_all", index)
            starts.append(start)
        # The L2<->L3 MSHR is deallocated when all responses arrive.
        respond_at = max(starts) + self.config.l3.latency + self._obl_l3_round_trip
        self.l2.mshrs.allocate(-1, cursor, respond_at, private=True)
        if self.observer.enabled:
            self.observer.emit(respond_at, "L3", "obl_respond", None)
        return respond_at, respond_at

    # ------------------------------------------------------------------ #
    # Coherence hooks
    # ------------------------------------------------------------------ #

    def external_invalidate(self, addr: int) -> bool:
        """Another agent invalidates a line (test/attack-harness hook).

        Removes the line from this core's private caches; returns True if it
        was present anywhere private (i.e. the core would have observed the
        invalidation through normal means).
        """
        line = self.line_of(addr)
        in_l1 = self.l1.array.invalidate(line)
        in_l2 = self.l2.array.invalidate(line)
        self.l3_slices[self.slice_of(line)].array.invalidate(line)
        self.directory.evict(self.core_id, line)
        return in_l1 or in_l2

    def warm(self, addrs, write: bool = False) -> None:
        """Pre-load lines into the hierarchy (test/workload setup helper).

        Fills the cache arrays directly, without going through the timing
        model — warm-up happens "before time zero", so it must not leave
        bank/port/MSHR residue that would skew the measured run.

        The result equals filling L1 (dirty iff ``write``), L2 and the L3
        slice and touching the TLB per address.  An empty array or TLB
        takes that final state directly (see
        :meth:`~repro.memory.cache.CacheArray.install_recent`): by the LRU
        stack property each set ends with its ``assoc`` most recently used
        distinct lines, so only the distinct lines in last-use order
        matter, computed once here.  An array that already holds lines
        (whose dirty bits and LRU order interact with the stream) replays
        the fills in order instead.
        """
        addrs = list(addrs)
        line_size = self.config.line_size
        # The distinct lines, most recently used first.
        recent = list(dict.fromkeys([addr // line_size for addr in reversed(addrs)]))
        private = [(self.l1.array, write), (self.l2.array, False)]
        slices = [level.array for level in self.l3_slices]
        empty = [array.is_empty() for array, _ in private]
        slices_empty = all(array.is_empty() for array in slices)
        # The whole stream, only for arrays that already hold lines.
        lines = None if all(empty) and slices_empty else [addr // line_size for addr in addrs]
        for (array, dirty), fresh in zip(private, empty, strict=True):
            if fresh:
                array.install_recent(recent, dirty)
            else:
                array.fill_many(lines, dirty)
        if slices_empty:
            per_slice = lines_by_slice(recent, len(slices))
            for array, slice_recent in zip(slices, per_slice, strict=True):
                array.install_recent(slice_recent)
        else:
            per_slice = lines_by_slice(lines, len(slices))
            for array, slice_lines in zip(slices, per_slice, strict=True):
                array.fill_many(slice_lines)
        self.tlb.warm(addrs)
        self.tlb.hits = 0
        self.tlb.misses = 0
