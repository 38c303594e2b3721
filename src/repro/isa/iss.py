"""Functional instruction-set simulator (the golden model).

The out-of-order timing model in ``repro.pipeline`` is execution-driven and
speculative; its committed architectural state must match this simple
in-order interpreter instruction for instruction.  The integration tests
(``tests/integration/test_golden_model.py``) enforce exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.isa.instructions import (
    FP_BASE,
    Instruction,
    Opcode,
    is_fp_reg,
)
from repro.isa.program import Program

_INT_MASK = (1 << 64) - 1


def wrap64(value: int) -> int:
    """Wrap to a signed 64-bit integer (two's complement)."""
    value &= _INT_MASK
    return value - (1 << 64) if value >> 63 else value


@dataclass
class ArchState:
    """Architectural state: register files + data memory."""

    int_regs: list[int] = field(default_factory=lambda: [0] * 32)
    fp_regs: list[float] = field(default_factory=lambda: [0.0] * 16)
    memory: dict[int, int | float] = field(default_factory=dict)

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
        return self.memory.get(addr, 0)

    def write_mem(self, addr: int, value: int | float) -> None:
        self.memory[addr] = value

    def snapshot(self) -> "ArchState":
        return ArchState(list(self.int_regs), list(self.fp_regs), dict(self.memory))


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


def execute_instruction(
    inst: Instruction, pc: int, state: ArchState
) -> tuple[int, bool, int | None, int | float | None]:
    """Execute one instruction against ``state``.

    Returns ``(next_pc, taken, mem_addr, result)`` where ``result`` is the
    value written to ``inst.rd`` (None if no destination).  This function is
    shared verbatim by the ISS and by the OoO core's execute stage (the OoO
    core calls it with *renamed* operand values), so the two cannot diverge
    semantically.
    """
    op = inst.opcode
    rs1 = state.read_reg(inst.rs1) if inst.rs1 is not None else 0
    rs2 = state.read_reg(inst.rs2) if inst.rs2 is not None else 0
    next_pc = pc + 1
    taken = False
    mem_addr: int | None = None
    result: int | float | None = None

    if op is Opcode.ADD:
        result = wrap64(rs1 + rs2)
    elif op is Opcode.SUB:
        result = wrap64(rs1 - rs2)
    elif op is Opcode.AND:
        result = rs1 & rs2
    elif op is Opcode.OR:
        result = rs1 | rs2
    elif op is Opcode.XOR:
        result = rs1 ^ rs2
    elif op is Opcode.SLT:
        result = 1 if rs1 < rs2 else 0
    elif op is Opcode.SHL:
        result = wrap64(rs1 << (rs2 & 63))
    elif op is Opcode.SHR:
        result = (rs1 & _INT_MASK) >> (rs2 & 63)
    elif op is Opcode.MUL:
        result = wrap64(rs1 * rs2)
    elif op is Opcode.ADDI:
        result = wrap64(rs1 + int(inst.imm))
    elif op is Opcode.ANDI:
        result = rs1 & int(inst.imm)
    elif op is Opcode.LI:
        result = wrap64(int(inst.imm))
    elif op in (Opcode.LOAD, Opcode.FLOAD):
        mem_addr = wrap64(rs1 + int(inst.imm))
        result = state.read_mem(mem_addr)
        if op is Opcode.FLOAD:
            result = float(result)
        else:
            result = wrap64(int(result))
    elif op in (Opcode.STORE, Opcode.FSTORE):
        # rs1 = value, rs2 = base (assembler signature "ssi").
        mem_addr = wrap64(rs2 + int(inst.imm))
        state.write_mem(mem_addr, rs1)
    elif op is Opcode.BEQ:
        taken = rs1 == rs2
    elif op is Opcode.BNE:
        taken = rs1 != rs2
    elif op is Opcode.BLT:
        taken = rs1 < rs2
    elif op is Opcode.BGE:
        taken = rs1 >= rs2
    elif op is Opcode.JMP:
        taken = True
    elif op is Opcode.FADD:
        result = rs1 + rs2
    elif op is Opcode.FSUB:
        result = rs1 - rs2
    elif op is Opcode.FMUL:
        result = rs1 * rs2
    elif op is Opcode.FDIV:
        result = _safe_div(rs1, rs2)
    elif op is Opcode.FSQRT:
        result = _fp_sqrt(rs1)
    elif op is Opcode.FLI:
        result = float(inst.imm)
    elif op in (Opcode.NOP, Opcode.HALT):
        pass
    else:  # pragma: no cover - exhaustive over Opcode
        raise NotImplementedError(op)

    if taken:
        next_pc = inst.target if inst.target is not None else next_pc
    if result is not None and inst.rd is not None:
        state.write_reg(inst.rd, result)
    return next_pc, taken, mem_addr, result


class Interpreter:
    """In-order functional execution of a :class:`Program`."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.state = ArchState(memory=program.initial_memory.copy())
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
        if inst.opcode is Opcode.HALT:
            self.halted = True
        return record

    def run(self, max_instructions: int = 1_000_000) -> list[CommittedOp]:
        """Run to HALT (or the instruction limit); return the commit trace."""
        trace: list[CommittedOp] = []
        while not self.halted and len(trace) < max_instructions:
            trace.append(self.step())
        return trace
