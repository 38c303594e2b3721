"""Tests for rename map, physical register file, ROB, and LSQ structures."""

import pytest

from repro.isa.instructions import FP_BASE, Instruction, Opcode
from repro.pipeline.lsq import LoadQueue, StoreQueue
from repro.pipeline.registers import PhysRegFile, RenameMap
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.uop import DynInst


def make_uop(seq, opcode=Opcode.ADDI, **kwargs):
    return DynInst(seq, pc=seq, inst=Instruction(opcode, **kwargs))


class TestRenameMap:
    def test_initial_mappings_ready(self):
        prf = PhysRegFile(100)
        rename = RenameMap(prf)
        for arch in (0, 1, 31, FP_BASE, FP_BASE + 15):
            preg = rename.lookup(arch)
            assert prf.ready[preg]

    def test_rename_dest_allocates_fresh(self):
        prf = PhysRegFile(100)
        rename = RenameMap(prf)
        old_mapping = rename.lookup(5)
        new_preg, old_preg = rename.rename_dest(5)
        assert old_preg == old_mapping
        assert rename.lookup(5) == new_preg
        assert not prf.ready[new_preg]

    def test_r0_stays_pinned(self):
        prf = PhysRegFile(100)
        rename = RenameMap(prf)
        new_preg, _ = rename.rename_dest(0)
        assert rename.lookup(0) == RenameMap.ZERO_PREG
        assert new_preg != RenameMap.ZERO_PREG  # sink register allocated

    def test_rollback(self):
        prf = PhysRegFile(100)
        rename = RenameMap(prf)
        original = rename.lookup(3)
        _, old = rename.rename_dest(3)
        rename.rollback_dest(3, old)
        assert rename.lookup(3) == original

    def test_exhaustion_returns_none(self):
        prf = PhysRegFile(48)  # exactly the architectural registers
        rename = RenameMap(prf)
        assert prf.free_count() == 0
        assert rename.rename_dest(1) is None

    def test_free_recycles(self):
        prf = PhysRegFile(49)  # one spare
        rename = RenameMap(prf)
        new_preg, old = rename.rename_dest(1)
        assert rename.rename_dest(2) is None
        prf.free(old)
        assert rename.rename_dest(2) is not None


class TestReorderBuffer:
    def test_fifo_order(self):
        rob = ReorderBuffer(4)
        uops = [make_uop(i) for i in range(3)]
        for uop in uops:
            rob.push(uop)
        assert rob.head is uops[0]
        assert rob.pop_head() is uops[0]
        assert rob.head is uops[1]

    def test_capacity(self):
        rob = ReorderBuffer(2)
        rob.push(make_uop(0))
        rob.push(make_uop(1))
        assert rob.full
        with pytest.raises(RuntimeError):
            rob.push(make_uop(2))

    def test_squash_younger_than_returns_youngest_first(self):
        rob = ReorderBuffer(8)
        uops = [make_uop(i) for i in range(5)]
        for uop in uops:
            rob.push(uop)
        squashed = rob.squash_younger_than(2)
        assert [u.seq for u in squashed] == [4, 3]
        assert [u.seq for u in rob] == [0, 1, 2]

    def test_older_than(self):
        rob = ReorderBuffer(8)
        for i in range(4):
            rob.push(make_uop(i))
        assert [u.seq for u in rob.older_than(2)] == [0, 1]


class TestStoreQueue:
    def _store(self, seq, addr=None, value=None):
        uop = make_uop(seq, Opcode.STORE, rs1=1, rs2=2, imm=0)
        uop.addr = addr
        uop.store_value = value
        return uop

    def test_addresses_known_gate(self):
        sq = StoreQueue(4)
        sq.push(self._store(0, addr=8))
        sq.push(self._store(1, addr=None))
        assert sq.load_scan(8, 1) == (True, sq._entries[0])
        assert sq.load_scan(16, 1) == (True, None)
        assert sq.load_scan(8, 2) == (False, None)

    def test_forward_source_picks_youngest_older(self):
        sq = StoreQueue(4)
        older = self._store(0, addr=8, value=1)
        newer = self._store(2, addr=8, value=2)
        sq.push(older)
        sq.push(newer)
        assert sq.forward_source(8, seq=3) is newer
        assert sq.forward_source(8, seq=1) is older
        assert sq.forward_source(8, seq=0) is None
        assert sq.forward_source(16, seq=3) is None

    def test_squash(self):
        sq = StoreQueue(4)
        sq.push(self._store(0, addr=8))
        sq.push(self._store(5, addr=16))
        sq.squash_younger_than(2)
        assert len(sq) == 1

    def test_overflow(self):
        sq = StoreQueue(1)
        sq.push(self._store(0))
        with pytest.raises(RuntimeError):
            sq.push(self._store(1))


class TestLoadQueue:
    def test_loads_of_line(self):
        lq = LoadQueue(4)
        load = make_uop(0, Opcode.LOAD, rd=1, rs1=2, imm=0)
        load.line = 7
        load.issue_cycle = 3
        lq.push(load)
        pending = make_uop(1, Opcode.LOAD, rd=1, rs1=2, imm=0)
        pending.line = 7  # not yet issued
        lq.push(pending)
        assert lq.loads_of_line(7) == [load]

    def test_squash_and_remove(self):
        lq = LoadQueue(4)
        a, b = make_uop(0, Opcode.LOAD, rd=1, rs1=2), make_uop(3, Opcode.LOAD, rd=1, rs1=2)
        lq.push(a)
        lq.push(b)
        lq.squash_younger_than(1)
        assert list(lq) == [a]
        lq.remove(a)
        assert len(lq) == 0
