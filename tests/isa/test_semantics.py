"""The per-opcode semantics table against the longhand reference.

``repro.isa.iss.SEMANTICS`` is what both the ISS and the out-of-order core
evaluate.  Every opcode is run through it and through the one-arm-per-opcode
reference interpreter (``reference.py``) on edge operands, and the two must
agree on the returned ``(next_pc, taken, mem_addr, result)`` and on every
register and memory write.  The last class runs the two programs that once
made the core and the ISS disagree through a golden-checked ``Core``.
"""

from __future__ import annotations

import itertools
import math

import pytest

from repro.isa.assembler import assemble
from repro.isa.instructions import Instruction, OpClass, Opcode, fp_reg
from repro.isa.iss import LOAD_RESULT, SEMANTICS, ArchState, execute_instruction
from repro.pipeline.core import Core
from tests.isa.reference import reference_execute

INT_EDGES = (
    0, 1, -1, 3, 63, 64, 127, -64,
    2**62, 2**63 - 1, -(2**63), -(2**63) + 1,
)
SHIFT_COUNTS = (0, 63, 64, 127)
FLOAT_EDGES = (
    0.0, -0.0, 1.5, -2.5, 1e308, -1e308, 1e-300,
    5e-324, -5e-324, 2.0**-130, math.inf, -math.inf, math.nan,
)
INT_IMMEDIATES = (0, 5, -1, 2**63 - 1, 2**63, 2**64 - 1, -(2**63))
FLOAT_IMMEDIATES = (0.0, -0.0, 1.5, 2.0**-130, -1e308)
#: Destinations: an ordinary register, ``r0`` (writes discarded) and none.
INT_DESTS = (3, 0, None)
FP_DESTS = (fp_reg(3), None)
TARGETS = (7, None)
MEMORY = {0: 11, 8: -5, 2**63 - 1: 2**63 - 1, -(2**63): 0.25, -8: 3.5, 3: -(2**63)}


def _same(x, y) -> bool:
    """Equal, of the same type, with NaN equal to NaN and -0.0 != 0.0."""
    if type(x) is not type(y):
        return False
    if isinstance(x, float):
        if math.isnan(x) or math.isnan(y):
            return math.isnan(x) and math.isnan(y)
        return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
    if isinstance(x, (tuple, list)):
        return len(x) == len(y) and all(_same(a, b) for a, b in zip(x, y, strict=True))
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    return x == y


def _state(int_a, int_b, fp_a, fp_b) -> ArchState:
    state = ArchState(memory=dict(MEMORY))
    state.int_regs[1] = int_a
    state.int_regs[2] = int_b
    state.int_regs[3] = 99
    state.fp_regs[1] = fp_a
    state.fp_regs[2] = fp_b
    state.fp_regs[3] = 9.5
    return state


def _run(execute, inst, state):
    try:
        outcome = execute(inst, 40, state)
    except Exception as exc:  # the two must fail alike, too
        outcome = type(exc)
    return outcome, state.int_regs, state.fp_regs, state.memory


def _instructions(op: Opcode):
    """Every instruction shape of ``op`` the edge test runs."""
    f1, f2 = fp_reg(1), fp_reg(2)
    if op.op_class in (OpClass.INT_ALU, OpClass.INT_MUL):
        if op is Opcode.LI:
            for rd, imm in itertools.product(INT_DESTS, INT_IMMEDIATES):
                yield Instruction(op, rd=rd, imm=imm)
        elif op in (Opcode.ADDI, Opcode.ANDI):
            for rd, imm in itertools.product(INT_DESTS, INT_IMMEDIATES):
                yield Instruction(op, rd=rd, rs1=1, imm=imm)
        else:
            for rd in INT_DESTS:
                yield Instruction(op, rd=rd, rs1=1, rs2=2)
    elif op.is_load:
        rd = 3 if op is Opcode.LOAD else fp_reg(3)
        for dest, imm in itertools.product((rd, 0, None), INT_IMMEDIATES):
            yield Instruction(op, rd=dest, rs1=1, imm=imm)
    elif op.is_store:
        data = 1 if op is Opcode.STORE else f1
        for imm in INT_IMMEDIATES:
            yield Instruction(op, rs1=data, rs2=2, imm=imm)
    elif op.is_branch:
        for target in TARGETS:
            if op is Opcode.JMP:
                yield Instruction(op, target=target)
            else:
                yield Instruction(op, rs1=1, rs2=2, target=target)
                yield Instruction(op, rs1=f1, rs2=f2, target=target)
    elif op is Opcode.FLI:
        for rd, imm in itertools.product(FP_DESTS, FLOAT_IMMEDIATES):
            yield Instruction(op, rd=rd, imm=imm)
    elif op is Opcode.FSQRT:
        for rd in FP_DESTS:
            yield Instruction(op, rd=rd, rs1=f1)
    elif op.op_class is OpClass.FP:
        for rd in FP_DESTS:
            yield Instruction(op, rd=rd, rs1=f1, rs2=f2)
    else:
        yield Instruction(op)


def _operands(inst: Instruction):
    """Operand values to run ``inst`` under: ints for integer sources,
    floats for FP sources, shift counts for shifts."""
    if inst.opcode in (Opcode.SHL, Opcode.SHR):
        return [(a, b, 0.0, 0.0) for a in INT_EDGES for b in SHIFT_COUNTS + INT_EDGES]
    if inst.opcode.op_class is OpClass.FP or inst.opcode in (Opcode.FLOAD, Opcode.FSTORE):
        ints = (0, -8, 2**63 - 1) if inst.is_mem else (0,)
        return [(i, i, a, b) for i in ints for a in FLOAT_EDGES for b in FLOAT_EDGES]
    if inst.rs1 is not None and inst.rs1 >= fp_reg(0):  # FP branch compare
        return [(0, 0, a, b) for a in FLOAT_EDGES for b in FLOAT_EDGES]
    return [(a, b, 0.0, 0.0) for a in INT_EDGES for b in INT_EDGES]


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.mnemonic)
def test_table_matches_reference_on_edge_operands(op):
    checked = 0
    for inst in _instructions(op):
        for operands in _operands(inst):
            expected = _run(reference_execute, inst, _state(*operands))
            actual = _run(execute_instruction, inst, _state(*operands))
            assert _same(actual, expected), (str(inst), operands, actual[0], expected[0])
            checked += 1
    assert checked > 0


def test_fdiv_edges_do_not_trap():
    fdiv = SEMANTICS[Opcode.FDIV]
    assert fdiv(1.0, 0.0, 0) == math.inf
    assert fdiv(1.0, -0.0, 0) == math.inf  # the sign of the zero is ignored
    assert fdiv(-1.0, 0.0, 0) == -math.inf
    assert math.isnan(fdiv(0.0, 0.0, 0))
    assert fdiv(1e308, 1e-308, 0) == math.inf
    assert fdiv(-1e308, 1e-308, 0) == -math.inf
    assert math.isnan(SEMANTICS[Opcode.FSQRT](-1.0, 0, 0))


def test_every_opcode_has_exactly_one_entry():
    assert len(SEMANTICS) == len(Opcode)
    assert set(SEMANTICS) == set(Opcode)
    for op in Opcode:
        assert op.semantics is SEMANTICS[op]
        assert op.load_result is LOAD_RESULT.get(op)
    assert set(LOAD_RESULT) == {op for op in Opcode if op.is_load}


class TestUnsignedResultsStaySigned:
    """Two results once left 64-bit unsigned: the ISS wrapped them on the
    register write but the core wrote them raw into its register file, so
    a signed compare (or a store) of the value diverged."""

    def _commit(self, source: str) -> Core:
        core = Core(assemble(source), check_golden=True)
        result = core.run(max_cycles=10_000)
        assert result.halted
        return core

    def test_shr_by_a_multiple_of_64_keeps_the_sign(self):
        core = self._commit(
            """
            li r1, -1
            li r2, 0
            shr r3, r1, r2
            slt r4, r3, r2
            li r5, 64
            shr r6, r1, r5
            slt r7, r6, r2
            li r8, 512
            store r3, r8, 0
            load r9, r8, 0
            slt r10, r9, r2
            halt
            """
        )
        assert core.committed.read_mem(512) == -1

    def test_andi_with_a_high_immediate_keeps_the_sign(self):
        core = self._commit(
            """
            li r1, -1
            andi r3, r1, 0xFFFFFFFFFFFFFFFF
            slt r4, r3, r0
            li r8, 256
            store r3, r8, 0
            halt
            """
        )
        assert core.committed.read_mem(256) == -1
