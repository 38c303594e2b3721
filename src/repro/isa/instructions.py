"""Instruction definitions for the micro-ISA.

Register naming convention: registers are plain integers.  Integer registers
occupy ``0..NUM_INT_REGS-1``; floating point registers are offset by
:data:`FP_BASE` so a single rename table can cover both files.  Use
:func:`int_reg` / :func:`fp_reg` to construct them and
:func:`is_fp_reg` to classify.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

NUM_INT_REGS = 32
NUM_FP_REGS = 16
FP_BASE = 100

#: Magnitude below which a (nonzero) float takes the slow FP path.  This is
#: the single-precision subnormal threshold; the exact value is irrelevant to
#: the mechanism, only that some inputs are "slow" (Section I-A of the paper).
SUBNORMAL_THRESHOLD = 2.0 ** -126


def int_reg(index: int) -> int:
    """Architectural integer register ``r<index>``."""
    if not 0 <= index < NUM_INT_REGS:
        raise ValueError(f"integer register index out of range: {index}")
    return index


def fp_reg(index: int) -> int:
    """Architectural floating point register ``f<index>``."""
    if not 0 <= index < NUM_FP_REGS:
        raise ValueError(f"fp register index out of range: {index}")
    return FP_BASE + index


def is_fp_reg(reg: int) -> bool:
    return reg >= FP_BASE


def reg_name(reg: int | None) -> str:
    if reg is None:
        return "-"
    if is_fp_reg(reg):
        return f"f{reg - FP_BASE}"
    return f"r{reg}"


def is_subnormal(value: float) -> bool:
    """True if ``value`` triggers the slow floating point path."""
    return value != 0.0 and abs(value) < SUBNORMAL_THRESHOLD


class OpClass(enum.Enum):
    """Execution resource class; maps to functional units and latencies."""

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    FP = "fp"
    SYSTEM = "system"


class Opcode(enum.Enum):
    # Integer ALU.
    ADD = ("add", OpClass.INT_ALU)
    SUB = ("sub", OpClass.INT_ALU)
    AND = ("and", OpClass.INT_ALU)
    OR = ("or", OpClass.INT_ALU)
    XOR = ("xor", OpClass.INT_ALU)
    SLT = ("slt", OpClass.INT_ALU)
    SHL = ("shl", OpClass.INT_ALU)
    SHR = ("shr", OpClass.INT_ALU)
    ADDI = ("addi", OpClass.INT_ALU)
    ANDI = ("andi", OpClass.INT_ALU)
    LI = ("li", OpClass.INT_ALU)
    MUL = ("mul", OpClass.INT_MUL)
    # Memory.  Address is rs1 + imm; value register is rd (load) / rs2 (store).
    LOAD = ("load", OpClass.LOAD)
    STORE = ("store", OpClass.STORE)
    FLOAD = ("fload", OpClass.LOAD)
    FSTORE = ("fstore", OpClass.STORE)
    # Control flow.  Conditional branches compare rs1 against rs2.
    BEQ = ("beq", OpClass.BRANCH)
    BNE = ("bne", OpClass.BRANCH)
    BLT = ("blt", OpClass.BRANCH)
    BGE = ("bge", OpClass.BRANCH)
    JMP = ("jmp", OpClass.BRANCH)
    # Floating point.
    FADD = ("fadd", OpClass.FP)
    FSUB = ("fsub", OpClass.FP)
    FMUL = ("fmul", OpClass.FP)
    FDIV = ("fdiv", OpClass.FP)
    FSQRT = ("fsqrt", OpClass.FP)
    FLI = ("fli", OpClass.FP)
    # System.
    NOP = ("nop", OpClass.SYSTEM)
    HALT = ("halt", OpClass.SYSTEM)

    def __init__(self, mnemonic: str, op_class: OpClass) -> None:
        # Static facts decoded once, as plain attributes: the pipeline reads
        # them for every in-flight uop every cycle.
        self.mnemonic = mnemonic
        self.op_class = op_class
        self.is_load = op_class is OpClass.LOAD
        self.is_store = op_class is OpClass.STORE
        self.is_branch = op_class is OpClass.BRANCH
        # JMP is unconditional and never mispredicts direction, only its BTB
        # target on a cold miss.
        self.is_conditional_branch = self.is_branch and mnemonic != "jmp"
        # FP micro-ops treated as transmitters under STT{ld+fp} (Table II:
        # "unsafe loads and fmult/div/fsqrt micro-ops").  FADD/FSUB are
        # fixed-latency in the modelled machine and therefore not transmitters.
        self.is_fp_transmitter = mnemonic in ("fmul", "fdiv", "fsqrt")


#: FP micro-ops treated as transmitters under STT{ld+fp}.
FP_TRANSMIT_OPS = frozenset(op for op in Opcode if op.is_fp_transmitter)

#: Conditional branch opcodes.
CONDITIONAL_BRANCHES = frozenset(op for op in Opcode if op.is_conditional_branch)


@dataclass(frozen=True)
class Instruction:
    """One static instruction.

    ``rd`` is the destination register (or None), ``rs1``/``rs2`` sources,
    ``imm`` an integer or float immediate, and ``target`` a branch target
    expressed as an instruction index.
    """

    opcode: Opcode
    rd: int | None = None
    rs1: int | None = None
    rs2: int | None = None
    imm: int | float = 0
    target: int | None = None
    label: str | None = field(default=None, compare=False)

    @property
    def op_class(self) -> OpClass:
        return self.opcode.op_class

    @property
    def is_load(self) -> bool:
        return self.opcode.is_load

    @property
    def is_store(self) -> bool:
        return self.opcode.is_store

    @property
    def is_mem(self) -> bool:
        return self.opcode.is_load or self.opcode.is_store

    @property
    def is_branch(self) -> bool:
        return self.opcode.is_branch

    @property
    def is_conditional_branch(self) -> bool:
        return self.opcode.is_conditional_branch

    @property
    def is_fp_transmitter(self) -> bool:
        return self.opcode.is_fp_transmitter

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (inverse of :meth:`from_dict`).

        ``None`` fields are dropped for compactness — a program is thousands
        of instructions.  The opcode is written by enum *name*
        (``"FLOAD"``), which is stable across mnemonic edits.
        """
        payload: dict[str, object] = {"opcode": self.opcode.name}
        for attr in ("rd", "rs1", "rs2", "target", "label"):
            value = getattr(self, attr)
            if value is not None:
                payload[attr] = value
        if self.imm != 0 or isinstance(self.imm, float):
            payload["imm"] = self.imm
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Instruction":
        return cls(
            opcode=Opcode[payload["opcode"]],
            rd=payload.get("rd"),
            rs1=payload.get("rs1"),
            rs2=payload.get("rs2"),
            imm=payload.get("imm", 0),
            target=payload.get("target"),
            label=payload.get("label"),
        )

    def sources(self) -> tuple[int, ...]:
        """Source registers actually read by this instruction."""
        srcs = []
        if self.rs1 is not None:
            srcs.append(self.rs1)
        if self.rs2 is not None:
            srcs.append(self.rs2)
        return tuple(srcs)

    def __str__(self) -> str:
        parts = [self.opcode.mnemonic]
        if self.rd is not None:
            parts.append(reg_name(self.rd))
        if self.rs1 is not None:
            parts.append(reg_name(self.rs1))
        if self.rs2 is not None:
            parts.append(reg_name(self.rs2))
        if self.opcode in (Opcode.ADDI, Opcode.ANDI, Opcode.LI, Opcode.FLI,
                           Opcode.LOAD, Opcode.STORE, Opcode.FLOAD, Opcode.FSTORE):
            parts.append(str(self.imm))
        if self.target is not None:
            parts.append(f"@{self.target}")
        return " ".join(parts)
