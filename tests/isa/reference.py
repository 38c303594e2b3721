"""Reference semantics of the micro-ISA: one ``if``/``elif`` arm per opcode.

This is the straight-line interpreter the simulator used before its
semantics became the per-opcode table ``repro.isa.iss.SEMANTICS``.  It is
kept here, written out longhand, as the oracle the table is tested against
(``test_semantics.py``).  It returns the same ``(next_pc, taken, mem_addr,
result)`` tuple as :func:`repro.isa.iss.execute_instruction` and writes
registers and memory through the same :class:`~repro.isa.iss.ArchState`.
"""

from __future__ import annotations

from repro.isa.instructions import Instruction, Opcode
from repro.isa.iss import ArchState, _fp_sqrt, _safe_div, wrap64

_INT_MASK = (1 << 64) - 1


def reference_execute(
    inst: Instruction, pc: int, state: ArchState
) -> tuple[int, bool, int | None, int | float | None]:
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
        # Logical shift of the unsigned pattern, re-read as signed: a shift
        # by 0 (mod 64) of a negative value is that value, not 2**64 + it.
        result = wrap64((rs1 & _INT_MASK) >> (rs2 & 63))
    elif op is Opcode.MUL:
        result = wrap64(rs1 * rs2)
    elif op is Opcode.ADDI:
        result = wrap64(rs1 + int(inst.imm))
    elif op is Opcode.ANDI:
        # An immediate >= 2**63 keeps the sign bit of a negative rs1 set.
        result = wrap64(rs1 & int(inst.imm))
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
