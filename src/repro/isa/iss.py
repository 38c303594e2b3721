"""Functional instruction-set simulator (the golden model).

The out-of-order timing model in ``repro.pipeline`` is execution-driven and
speculative; its committed architectural state must match this simple
in-order interpreter instruction for instruction.  The integration tests
(``tests/integration/test_golden_model.py``) enforce exactly that.  Both
evaluate the one per-opcode table :data:`SEMANTICS`, which
``tests/isa/test_semantics.py`` checks against a reference interpreter on
edge operands.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.isa.image import MemoryImage
from repro.isa.instructions import (
    FP_BASE,
    Instruction,
    Opcode,
    is_fp_reg,
)
from repro.isa.program import Program

_INT_MASK = (1 << 64) - 1
_HALT = Opcode.HALT
_UNWRITTEN = object()


def wrap64(value: int) -> int:
    """Wrap to a signed 64-bit integer (two's complement)."""
    value &= _INT_MASK
    return value - (1 << 64) if value >> 63 else value


@dataclass
class ArchState:
    """Architectural state: register files + data memory.

    Memory reads through: ``memory`` holds the words written since the
    state began, ``image`` the read-only initial words (a program's
    :attr:`~repro.isa.program.Program.initial_memory`, shared, never
    copied), and any other address reads 0.
    """

    int_regs: list[int] = field(default_factory=lambda: [0] * 32)
    fp_regs: list[float] = field(default_factory=lambda: [0.0] * 16)
    memory: dict[int, int | float] = field(default_factory=dict)
    image: Mapping[int, int | float] = field(default_factory=MemoryImage)
    def read_reg(self, reg: int) -> int | float:
        if is_fp_reg(reg):
            return self.fp_regs[reg - FP_BASE]
        if reg == 0:
            return 0
        return self.int_regs[reg]

    def write_reg(self, reg: int, value: int | float) -> None:
        if is_fp_reg(reg):
            self.fp_regs[reg - FP_BASE] = float(value)
        elif reg != 0:  # r0 is hardwired to zero
            self.int_regs[reg] = wrap64(int(value))

    def read_mem(self, addr: int) -> int | float:
        value = self.memory.get(addr, _UNWRITTEN)
        if value is _UNWRITTEN:
            return self.image.get(addr, 0)
        return value

    def write_mem(self, addr: int, value: int | float) -> None:
        self.memory[addr] = value

    def snapshot(self) -> "ArchState":
        """An independent copy: the written words are copied, the
        read-only image is shared."""
        return ArchState(list(self.int_regs), list(self.fp_regs), dict(self.memory), self.image)


@dataclass(frozen=True)
class CommittedOp:
    """One architecturally committed instruction, for trace comparison."""

    seq: int
    pc: int
    opcode: Opcode
    next_pc: int
    taken: bool = False
    mem_addr: int | None = None
    result: int | float | None = None


def _fp_sqrt(value: float) -> float:
    # Hardware returns a NaN rather than trapping; model that.
    return math.sqrt(value) if value >= 0.0 else math.nan


def _safe_div(num: float, den: float) -> float:
    if den == 0.0:
        return math.inf if num > 0 else (-math.inf if num < 0 else math.nan)
    try:
        return num / den
    except OverflowError:
        return math.inf if (num > 0) == (den > 0) else -math.inf


#: The semantics of every opcode, as ``fn(a, b, imm)`` over the values of
#: ``rs1`` and ``rs2`` (0 for an absent operand) and the immediate.  What
#: ``fn`` returns depends on the opcode's class: the result for ALU and FP
#: ops, the effective address for loads and stores (a store's ``rs1`` is
#: its data, ``rs2`` its base), whether the branch is taken for branches,
#: and ``None`` for NOP and HALT.  Integer results are wrapped to 64 bits
#: here, so a result is the value its destination register holds.
#:
#: This one table is what both the ISS (:func:`execute_instruction`) and
#: the out-of-order core's execute stage (with *renamed* operand values)
#: evaluate, so the two cannot diverge semantically.  Each ``Opcode``
#: member carries its entry as the plain attribute ``semantics``: the core
#: calls it for every executed uop, and a member attribute costs a fraction
#: of an enum-keyed lookup.
SEMANTICS = {
    Opcode.ADD: lambda a, b, imm: wrap64(a + b),
    Opcode.SUB: lambda a, b, imm: wrap64(a - b),
    Opcode.AND: lambda a, b, imm: a & b,
    Opcode.OR: lambda a, b, imm: a | b,
    Opcode.XOR: lambda a, b, imm: a ^ b,
    Opcode.SLT: lambda a, b, imm: 1 if a < b else 0,
    Opcode.SHL: lambda a, b, imm: wrap64(a << (b & 63)),
    Opcode.SHR: lambda a, b, imm: wrap64((a & _INT_MASK) >> (b & 63)),
    Opcode.MUL: lambda a, b, imm: wrap64(a * b),
    Opcode.ADDI: lambda a, b, imm: wrap64(a + int(imm)),
    Opcode.ANDI: lambda a, b, imm: wrap64(a & int(imm)),
    Opcode.LI: lambda a, b, imm: wrap64(int(imm)),
    Opcode.LOAD: lambda a, b, imm: wrap64(a + int(imm)),
    Opcode.FLOAD: lambda a, b, imm: wrap64(a + int(imm)),
    Opcode.STORE: lambda a, b, imm: wrap64(b + int(imm)),
    Opcode.FSTORE: lambda a, b, imm: wrap64(b + int(imm)),
    Opcode.BEQ: lambda a, b, imm: a == b,
    Opcode.BNE: lambda a, b, imm: a != b,
    Opcode.BLT: lambda a, b, imm: a < b,
    Opcode.BGE: lambda a, b, imm: a >= b,
    Opcode.JMP: lambda a, b, imm: True,
    Opcode.FADD: lambda a, b, imm: a + b,
    Opcode.FSUB: lambda a, b, imm: a - b,
    Opcode.FMUL: lambda a, b, imm: a * b,
    Opcode.FDIV: lambda a, b, imm: _safe_div(a, b),
    Opcode.FSQRT: lambda a, b, imm: _fp_sqrt(a),
    Opcode.FLI: lambda a, b, imm: float(imm),
    Opcode.NOP: lambda a, b, imm: None,
    Opcode.HALT: lambda a, b, imm: None,
}

#: The register value a load writes for the memory word it read: FLOAD
#: coerces to a float, LOAD to a wrapped 64-bit integer.  Carried by the
#: two load opcodes as ``load_result``.
LOAD_RESULT = {
    Opcode.LOAD: lambda raw: wrap64(int(raw)),
    Opcode.FLOAD: float,
}

for _op in Opcode:
    _op.semantics = SEMANTICS[_op]
    _op.load_result = LOAD_RESULT.get(_op)
del _op


def execute_instruction(
    inst: Instruction, pc: int, state: ArchState
) -> tuple[int, bool, int | None, int | float | None]:
    """Execute one instruction against ``state`` through :data:`SEMANTICS`.

    Returns ``(next_pc, taken, mem_addr, result)`` where ``result`` is the
    value the instruction produces for ``inst.rd`` (None for stores,
    branches, NOP and HALT).
    """
    op = inst.opcode
    a = state.read_reg(inst.rs1) if inst.rs1 is not None else 0
    b = state.read_reg(inst.rs2) if inst.rs2 is not None else 0
    value = op.semantics(a, b, inst.imm)
    if op.is_branch:
        if value and inst.target is not None:
            return inst.target, value, None, None
        return pc + 1, value, None, None
    if op.is_store:
        state.write_mem(value, a)
        return pc + 1, False, value, None
    mem_addr = None
    if op.is_load:
        mem_addr = value
        value = op.load_result(state.read_mem(mem_addr))
    if value is not None and inst.rd is not None:
        state.write_reg(inst.rd, value)
    return pc + 1, False, mem_addr, value


class Interpreter:
    """In-order functional execution of a :class:`Program`."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.state = ArchState(image=program.initial_memory)
        self.pc = 0
        self.halted = False
        self.instructions_retired = 0

    def step(self) -> CommittedOp:
        """Execute one instruction and return its commit record."""
        if self.halted:
            raise RuntimeError("interpreter already halted")
        inst = self.program[self.pc]
        pc = self.pc
        next_pc, taken, mem_addr, result = execute_instruction(inst, pc, self.state)
        record = CommittedOp(
            seq=self.instructions_retired,
            pc=pc,
            opcode=inst.opcode,
            next_pc=next_pc,
            taken=taken,
            mem_addr=mem_addr,
            result=result,
        )
        self.instructions_retired += 1
        self.pc = next_pc
        if inst.opcode is _HALT:
            self.halted = True
        return record

    def run(self, max_instructions: int = 1_000_000) -> list[CommittedOp]:
        """Run to HALT (or the instruction limit); return the commit trace."""
        trace: list[CommittedOp] = []
        while not self.halted and len(trace) < max_instructions:
            trace.append(self.step())
        return trace
