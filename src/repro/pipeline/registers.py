"""Physical register file, free list, and rename map.

Taint is a property of *physical registers*, exactly as in STT ("STT does
not maintain taint/untaint information in the cache/memory system, only in
the physical register file").  Each physical register carries a
``taint_root``: the fetch-sequence number of the youngest access instruction
(load) whose output the value transitively depends on — STT's "youngest root
of taint" (YRoT).  ``None`` means architecturally clean data.  Whether a
root is *currently* tainted is a question for the protection scheme's
untaint frontier, not for this file.
"""

from __future__ import annotations

from repro.isa.instructions import FP_BASE, NUM_FP_REGS, NUM_INT_REGS


class PhysRegFile:
    """Values + ready bits + taint roots for physical registers."""

    def __init__(self, num_regs: int) -> None:
        self.num_regs = num_regs
        self.value: list[int | float] = [0] * num_regs
        self.ready: list[bool] = [False] * num_regs
        self.taint_root: list[int | None] = [None] * num_regs
        self._free: list[int] = []

    def mark_ready(self, preg: int, value: int | float) -> None:
        self.value[preg] = value
        self.ready[preg] = True

    def free(self, preg: int) -> None:
        self._free.append(preg)

    def free_count(self) -> int:
        return len(self._free)

    def seed_free_list(self, pregs: list[int]) -> None:
        self._free = list(pregs)


class RenameMap:
    """Architectural -> physical mapping for both register files.

    ``r0`` is pinned to physical register 0, which is permanently ready with
    value 0 and never tainted; writes to it are discarded by the core.
    """

    ZERO_PREG = 0

    def __init__(self, prf: PhysRegFile) -> None:
        self.prf = prf
        self._map: dict[int, int] = {}
        next_preg = 1
        for arch in range(NUM_INT_REGS):
            if arch == 0:
                self._map[arch] = self.ZERO_PREG
                continue
            self._map[arch] = next_preg
            next_preg += 1
        for arch in range(NUM_FP_REGS):
            self._map[FP_BASE + arch] = next_preg
            next_preg += 1
        for preg in range(next_preg):
            prf.mark_ready(preg, 0 if preg < NUM_INT_REGS else 0.0)
        prf.value[self.ZERO_PREG] = 0
        prf.seed_free_list(list(range(next_preg, prf.num_regs)))
        self._architectural_pregs = next_preg

    def lookup(self, arch: int) -> int:
        return self._map[arch]

    def rename_dest(self, arch: int) -> tuple[int, int] | None:
        """Allocate a new physical register for a write to ``arch``.

        Returns ``(new_preg, old_preg)`` for rollback, or None if out of
        physical registers (rename stalls).  Writes to r0 still allocate a
        sink register so the dataflow is uniform; the mapping is simply not
        updated, preserving r0 == 0.
        """
        prf = self.prf
        if not prf._free:
            return None
        # Allocate: pop a free register and reset it (not ready, value 0,
        # untainted).
        new_preg = prf._free.pop()
        prf.ready[new_preg] = False
        prf.value[new_preg] = 0
        prf.taint_root[new_preg] = None
        old_preg = self._map[arch]
        if arch != 0:
            self._map[arch] = new_preg
        return new_preg, old_preg

    def rollback_dest(self, arch: int, old_preg: int) -> None:
        """Undo one rename (used while squash-walking the ROB tail-first)."""
        if arch != 0:
            self._map[arch] = old_preg

    def snapshot(self) -> dict[int, int]:
        return dict(self._map)
