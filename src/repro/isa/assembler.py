"""A small two-pass assembler for the micro-ISA.

Syntax, one instruction per line (``;`` or ``#`` starts a comment)::

    loop:                       ; labels end with a colon
        li    r1, 100
        load  r2, r1, 8         ; r2 = mem[r1 + 8]
        store r2, r1, 16        ; mem[r1 + 16] = r2
        addi  r1, r1, 1
        blt   r1, r3, loop      ; branch to a label
        fli   f0, 1.5
        fmul  f1, f0, f0
        halt

Registers: ``r0``–``r31`` (``r0`` reads as zero by convention of the
interpreter) and ``f0``–``f15``.  Branch targets may be labels or absolute
instruction indices.
"""

from __future__ import annotations

import re
from collections.abc import Mapping

from repro.isa.instructions import (
    FP_BASE,
    NUM_FP_REGS,
    NUM_INT_REGS,
    Instruction,
    Opcode,
)
from repro.isa.program import Program


class AssemblyError(ValueError):
    """Raised on malformed assembly input, with a line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_MNEMONICS = {op.mnemonic: op for op in Opcode}
_REG_RE = re.compile(r"^(r|f)(\d+)$")

# Operand signature per opcode: a string of operand kinds.
#   d = dest reg, s = source reg, i = int immediate, f = float immediate,
#   t = branch target (label or index)
_SIGNATURES: dict[Opcode, str] = {
    Opcode.ADD: "dss", Opcode.SUB: "dss", Opcode.AND: "dss", Opcode.OR: "dss",
    Opcode.XOR: "dss", Opcode.SLT: "dss", Opcode.SHL: "dss", Opcode.SHR: "dss",
    Opcode.MUL: "dss",
    Opcode.ADDI: "dsi", Opcode.ANDI: "dsi",
    Opcode.LI: "di",
    Opcode.LOAD: "dsi", Opcode.FLOAD: "dsi",
    Opcode.STORE: "ssi", Opcode.FSTORE: "ssi",  # store value, base, offset
    Opcode.BEQ: "sst", Opcode.BNE: "sst", Opcode.BLT: "sst", Opcode.BGE: "sst",
    Opcode.JMP: "t",
    Opcode.FADD: "dss", Opcode.FSUB: "dss", Opcode.FMUL: "dss",
    Opcode.FDIV: "dss", Opcode.FSQRT: "ds",
    Opcode.FLI: "df",
    Opcode.NOP: "", Opcode.HALT: "",
}


def _parse_reg(token: str, line_no: int) -> int:
    match = _REG_RE.match(token)
    if not match:
        raise AssemblyError(line_no, f"expected register, got {token!r}")
    kind, index = match.group(1), int(match.group(2))
    if kind == "r":
        if index >= NUM_INT_REGS:
            raise AssemblyError(line_no, f"no such integer register {token!r}")
        return index
    if index >= NUM_FP_REGS:
        raise AssemblyError(line_no, f"no such fp register {token!r}")
    return FP_BASE + index


def _parse_int(token: str, line_no: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblyError(line_no, f"expected integer immediate, got {token!r}") from None


def _parse_float(token: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise AssemblyError(line_no, f"expected float immediate, got {token!r}") from None


def assemble(
    source: str,
    initial_memory: Mapping[int, int | float] | None = None,
    name: str = "asm",
) -> Program:
    """Assemble ``source`` into a :class:`Program`.

    A two-pass assembler: the first pass records label positions, the second
    encodes instructions and resolves branch targets.
    """
    labels: dict[str, int] = {}
    parsed: list[tuple[int, str, list[str], str | None]] = []

    pending_label: str | None = None
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = re.split(r"[;#]", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        while True:
            label_match = re.match(r"^([A-Za-z_]\w*):\s*(.*)$", line)
            if not label_match:
                break
            label = label_match.group(1)
            if label in labels or label == pending_label:
                raise AssemblyError(line_no, f"duplicate label {label!r}")
            if pending_label is not None:
                raise AssemblyError(line_no, "two labels on the same instruction")
            pending_label = label
            labels[label] = len(parsed)
            line = label_match.group(2).strip()
        if not line:
            continue
        tokens = line.replace(",", " ").split()
        mnemonic, operands = tokens[0].lower(), tokens[1:]
        if mnemonic not in _MNEMONICS:
            raise AssemblyError(line_no, f"unknown mnemonic {mnemonic!r}")
        parsed.append((line_no, mnemonic, operands, pending_label))
        pending_label = None

    if pending_label is not None:
        raise AssemblyError(0, f"label {pending_label!r} at end of program")

    instructions: list[Instruction] = []
    for line_no, mnemonic, operands, label in parsed:
        opcode = _MNEMONICS[mnemonic]
        signature = _SIGNATURES[opcode]
        if len(operands) != len(signature):
            raise AssemblyError(
                line_no,
                f"{mnemonic} takes {len(signature)} operands, got {len(operands)}",
            )
        rd = rs1 = rs2 = target = None
        imm: int | float = 0
        sources: list[int] = []
        for kind, token in zip(signature, operands, strict=True):
            if kind == "d":
                rd = _parse_reg(token, line_no)
            elif kind == "s":
                sources.append(_parse_reg(token, line_no))
            elif kind == "i":
                imm = _parse_int(token, line_no)
            elif kind == "f":
                imm = _parse_float(token, line_no)
            elif kind == "t":
                if token in labels:
                    target = labels[token]
                else:
                    target = _parse_int(token, line_no)
                    if not 0 <= target < len(parsed):
                        raise AssemblyError(line_no, f"branch target {token!r} out of range")
        if sources:
            rs1 = sources[0]
        if len(sources) > 1:
            rs2 = sources[1]
        instructions.append(
            Instruction(opcode, rd=rd, rs1=rs1, rs2=rs2, imm=imm, target=target, label=label)
        )

    return Program(instructions, {} if initial_memory is None else initial_memory, name=name)


def _render_reg(reg: int) -> str:
    return f"f{reg - FP_BASE}" if reg >= FP_BASE else f"r{reg}"


def disassemble(program: Program) -> str:
    """Render ``program`` back to :func:`assemble`-able source.

    The inverse of :func:`assemble` up to label naming: re-assembling the
    output yields a program with identical opcodes, operands, immediates
    and branch targets.  Branch targets are emitted as labels — the target
    instruction's own ``label`` when it has one, a synthesized ``L<pc>``
    otherwise.
    """
    labels: dict[int, str] = {
        pc: inst.label
        for pc, inst in enumerate(program.instructions)
        if inst.label
    }
    used = set(labels.values())
    for inst in program.instructions:
        if inst.target is not None and inst.target not in labels:
            name = f"L{inst.target}"
            while name in used:
                name += "_"
            labels[inst.target] = name
            used.add(name)
    lines: list[str] = []
    for pc, inst in enumerate(program.instructions):
        if pc in labels:
            lines.append(f"{labels[pc]}:")
        operands: list[str] = []
        sources = [reg for reg in (inst.rs1, inst.rs2) if reg is not None]
        for kind in _SIGNATURES[inst.opcode]:
            if kind == "d":
                operands.append(_render_reg(inst.rd))
            elif kind == "s":
                operands.append(_render_reg(sources.pop(0)))
            elif kind == "i":
                operands.append(str(int(inst.imm)))
            elif kind == "f":
                operands.append(repr(float(inst.imm)))
            elif kind == "t":
                operands.append(labels[inst.target])
        body = inst.opcode.mnemonic
        if operands:
            body += " " + ", ".join(operands)
        lines.append("    " + body)
    return "\n".join(lines) + "\n"
