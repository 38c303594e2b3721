"""Tests for the protection hook interface and its Unsafe default."""

import dataclasses

import pytest

from repro.common.config import MemLevel
from repro.isa.instructions import Instruction, Opcode
from repro.pipeline.protection import (
    FpIssueAction,
    IssueDecision,
    LoadIssueAction,
    UnsafeProtection,
)
from repro.pipeline.uop import DynInst, OblState, UopState


def make_load(seq=0):
    return DynInst(seq, seq, Instruction(Opcode.LOAD, rd=1, rs1=2, imm=0))


class TestUnsafeDefaults:
    def test_everything_is_permitted(self):
        protection = UnsafeProtection()
        uop = make_load()
        assert protection.load_issue_decision(uop).action is LoadIssueAction.NORMAL
        assert protection.fp_issue_decision(uop) is FpIssueAction.NORMAL
        assert protection.may_resolve_branch(uop)
        assert protection.output_safe(uop)
        assert not protection.sources_tainted(uop)
        assert protection.is_root_safe(123)

    def test_lifecycle_hooks_are_noops(self):
        protection = UnsafeProtection()
        uop = make_load()
        protection.begin_cycle(0)
        protection.on_rename(uop)
        protection.on_complete(uop)
        protection.on_commit(uop)
        protection.on_squash(uop)
        protection.on_load_outcome(uop, MemLevel.L2)
        assert uop.taint_root is None

    def test_attach_records_core(self):
        protection = UnsafeProtection()

        class FakeCore:
            pass

        core = FakeCore()
        protection.attach(core)
        assert protection.core is core


class TestIssueDecision:
    def test_oblivious_carries_level(self):
        decision = IssueDecision(LoadIssueAction.OBLIVIOUS, predicted_level=MemLevel.L2)
        assert decision.predicted_level is MemLevel.L2

    def test_frozen(self):
        decision = IssueDecision(LoadIssueAction.NORMAL)
        with pytest.raises(dataclasses.FrozenInstanceError):
            decision.action = LoadIssueAction.DELAY


class TestDynInstDefaults:
    def test_fresh_uop_state(self):
        uop = make_load(7)
        assert uop.state is UopState.FETCHED
        assert uop.tx.obl_state is OblState.NONE
        assert not uop.tx.safe
        assert not uop.completed
        assert uop.taint_root is None
        assert uop.tx.predicted_level is None

    def test_passthrough_predicates(self):
        load = make_load()
        assert load.is_load and not load.is_store and not load.is_branch
        fdiv = DynInst(0, 0, Instruction(Opcode.FDIV, rd=101, rs1=102, rs2=103))
        assert fdiv.is_fp_transmitter
        branch = DynInst(0, 0, Instruction(Opcode.BNE, rs1=1, rs2=2, target=0))
        assert branch.is_branch

    def test_only_transmitters_carry_protection_state(self):
        assert make_load().tx is not None
        fdiv = DynInst(0, 0, Instruction(Opcode.FDIV, rd=101, rs1=102, rs2=103))
        assert fdiv.tx is not None
        fadd = DynInst(0, 0, Instruction(Opcode.FADD, rd=101, rs1=102, rs2=103))
        assert fadd.tx is None
        add = DynInst(0, 0, Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3))
        assert add.tx is None

    def test_completed_property_tracks_state(self):
        uop = make_load()
        uop.state = UopState.COMPLETED
        assert uop.completed
        uop.state = UopState.RETIRED
        assert uop.completed

    def test_repr_is_informative(self):
        text = repr(make_load(42))
        assert "42" in text and "load" in text
