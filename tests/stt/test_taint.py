"""Tests for the untaint frontier and STT taint propagation."""

import math


from repro.common.config import AttackModel
from repro.isa.instructions import Instruction, Opcode
from repro.pipeline.uop import DynInst, OblState
from repro.stt.taint import UntaintFrontier


def branch(seq):
    return DynInst(seq, seq, Instruction(Opcode.BLT, rs1=1, rs2=2, target=0))


def load(seq):
    return DynInst(seq, seq, Instruction(Opcode.LOAD, rd=1, rs1=2, imm=0))


def fp(seq):
    return DynInst(seq, seq, Instruction(Opcode.FMUL, rd=101, rs1=102, rs2=103))


class TestSpectreFrontier:
    def test_empty_frontier_is_infinite(self):
        frontier = UntaintFrontier(AttackModel.SPECTRE)
        assert frontier.value() == math.inf
        assert frontier.is_safe(12345)
        assert frontier.is_safe(None)

    def test_unresolved_branch_blocks_younger_roots(self):
        frontier = UntaintFrontier(AttackModel.SPECTRE)
        b = branch(10)
        frontier.register(b)
        assert frontier.is_safe(5)  # older than the branch
        assert frontier.is_safe(10)  # the frontier instruction itself
        assert not frontier.is_safe(11)  # younger: tainted

    def test_resolution_advances_frontier(self):
        frontier = UntaintFrontier(AttackModel.SPECTRE)
        b = branch(10)
        frontier.register(b)
        b.resolved = True
        assert frontier.is_safe(11)

    def test_squashed_branch_stops_blocking(self):
        frontier = UntaintFrontier(AttackModel.SPECTRE)
        b = branch(10)
        frontier.register(b)
        b.squashed = True
        assert frontier.value() == math.inf

    def test_loads_do_not_block_in_spectre(self):
        frontier = UntaintFrontier(AttackModel.SPECTRE)
        frontier.register(load(5))
        assert frontier.is_safe(100)

    def test_min_over_many(self):
        frontier = UntaintFrontier(AttackModel.SPECTRE)
        branches = [branch(s) for s in (30, 10, 20)]
        for b in branches:
            frontier.register(b)
        assert frontier.value() == 10
        branches[1].resolved = True
        assert frontier.value() == 20


class TestFuturisticFrontier:
    def test_incomplete_load_blocks(self):
        frontier = UntaintFrontier(AttackModel.FUTURISTIC)
        ld = load(7)
        frontier.register(ld)
        assert not frontier.is_safe(8)

    def test_completed_normal_load_unblocks(self):
        frontier = UntaintFrontier(AttackModel.FUTURISTIC)
        ld = load(7)
        frontier.register(ld)
        from repro.pipeline.uop import UopState

        ld.state = UopState.COMPLETED
        assert frontier.is_safe(8)

    def test_obl_load_blocks_until_safe(self):
        from repro.pipeline.uop import UopState

        frontier = UntaintFrontier(AttackModel.FUTURISTIC)
        ld = load(7)
        frontier.register(ld)
        ld.state = UopState.COMPLETED
        ld.tx.obl_state = OblState.DONE
        assert not frontier.is_safe(8)  # could still fail-squash
        ld.tx.safe = True
        assert frontier.is_safe(8)

    def test_pending_validation_blocks(self):
        from repro.pipeline.uop import UopState

        frontier = UntaintFrontier(AttackModel.FUTURISTIC)
        ld = load(7)
        frontier.register(ld)
        ld.state = UopState.COMPLETED
        ld.tx.needs_validation = True
        assert not frontier.is_safe(8)
        ld.tx.validation_done = True
        assert frontier.is_safe(8)

    def test_pending_squash_blocks(self):
        from repro.pipeline.uop import UopState

        frontier = UntaintFrontier(AttackModel.FUTURISTIC)
        ld = load(7)
        frontier.register(ld)
        ld.state = UopState.COMPLETED
        ld.tx.pending_squash = True
        assert not frontier.is_safe(8)

    def test_fast_predicted_fp_blocks_until_safe(self):
        from repro.pipeline.uop import UopState

        frontier = UntaintFrontier(AttackModel.FUTURISTIC)
        op = fp(9)
        frontier.register(op)
        op.state = UopState.COMPLETED
        op.tx.fp_predicted_fast = True
        assert not frontier.is_safe(10)
        op.tx.safe = True
        assert frontier.is_safe(10)

    def test_fp_not_registered_in_spectre(self):
        frontier = UntaintFrontier(AttackModel.SPECTRE)
        frontier.register(fp(9))
        assert len(frontier) == 0
