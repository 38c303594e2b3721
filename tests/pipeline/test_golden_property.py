"""Property-based equivalence: random programs, every protection scheme.

The single most important invariant in the repository: for *any* program,
the speculative out-of-order core — under Unsafe, STT, or STT+SDO, in
either attack model — commits exactly the instruction stream and values the
in-order functional interpreter produces.  (The Core enforces this at every
commit via its built-in golden check; these tests drive it with randomly
generated programs so the whole speculation/squash/taint machinery gets
adversarial coverage.)
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.config import AttackModel
from repro.isa import Interpreter, Program
from repro.isa.instructions import Instruction, Opcode
from repro.pipeline.core import Core
from repro.sim.configs import config_by_name, make_protection

_DATA_BASE = 4096
_DATA_WORDS = 64


def _random_program(rng: random.Random, length: int) -> Program:
    """A random but well-formed program: loops, branches, loads, stores, FP.

    All memory addresses are generated as ``base + 8 * (value & 63)`` with
    the base register masked first, so every access lands in a small data
    region and dependent (pointer-like) access chains arise naturally.
    """
    instructions: list[Instruction] = []

    def emit(opcode, **kwargs):
        instructions.append(Instruction(opcode, **kwargs))

    emit(Opcode.LI, rd=1, imm=rng.randrange(64))
    emit(Opcode.LI, rd=2, imm=rng.randrange(64))
    emit(Opcode.LI, rd=10, imm=511)  # mask register (64 words * 8)
    body_start = len(instructions)
    int_ops = [Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.MUL]
    for _ in range(length):
        roll = rng.random()
        if roll < 0.35:
            emit(rng.choice(int_ops),
                 rd=rng.randrange(1, 8),
                 rs1=rng.randrange(1, 8),
                 rs2=rng.randrange(1, 8))
        elif roll < 0.55:
            # Masked load: address = (reg & 511) + base (8-aligned not
            # required; the memory model is word-keyed by exact address).
            emit(Opcode.AND, rd=9, rs1=rng.randrange(1, 8), rs2=10)
            emit(Opcode.LOAD, rd=rng.randrange(1, 8), rs1=9, imm=_DATA_BASE)
        elif roll < 0.68:
            emit(Opcode.AND, rd=9, rs1=rng.randrange(1, 8), rs2=10)
            emit(Opcode.STORE, rs1=rng.randrange(1, 8), rs2=9, imm=_DATA_BASE)
        elif roll < 0.82:
            # Forward conditional branch over 1-3 instructions (patched below).
            emit(rng.choice([Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE]),
                 rs1=rng.randrange(1, 8), rs2=rng.randrange(1, 8),
                 target=-(rng.randrange(1, 4)))  # placeholder: skip distance
        elif roll < 0.92:
            emit(Opcode.FLI, rd=100 + rng.randrange(4), imm=rng.uniform(0.5, 2.0))
            emit(Opcode.FMUL, rd=100 + rng.randrange(4),
                 rs1=100 + rng.randrange(4), rs2=100 + rng.randrange(4))
        else:
            emit(Opcode.ADDI, rd=rng.randrange(1, 8),
                 rs1=rng.randrange(1, 8), imm=rng.randrange(-8, 8))
    # Patch placeholder branch targets to real forward indices.
    for index, inst in enumerate(instructions):
        if inst.is_branch and inst.target is not None and inst.target < 0:
            skip = min(-inst.target, len(instructions) - index - 1)
            instructions[index] = Instruction(
                inst.opcode, rs1=inst.rs1, rs2=inst.rs2, target=index + 1 + skip
            )
    # A bounded backward loop over the whole body.
    counter, limit = 20, 21
    instructions.insert(0, Instruction(Opcode.LI, rd=counter, imm=0))
    instructions.insert(1, Instruction(Opcode.LI, rd=limit, imm=rng.randrange(2, 4)))
    #

    # (inserting shifted branch targets by 2)
    fixed = []
    for inst in instructions[2:]:
        if inst.is_branch and inst.target is not None:
            fixed.append(Instruction(inst.opcode, rs1=inst.rs1, rs2=inst.rs2,
                                     target=inst.target + 2))
        else:
            fixed.append(inst)
    instructions = instructions[:2] + fixed
    loop_back_to = 2
    instructions.append(Instruction(Opcode.ADDI, rd=counter, rs1=counter, imm=1))
    instructions.append(
        Instruction(Opcode.BLT, rs1=counter, rs2=limit, target=loop_back_to)
    )
    instructions.append(Instruction(Opcode.HALT))

    memory = {
        _DATA_BASE + offset: rng.randrange(512)
        for offset in range(0, 512 + 8)
    }
    return Program(instructions, memory, name="random")


#: (configuration, attack model) pairs: every Table II row at least once,
#: the interesting ones under both models.
GRID = [
    ("Unsafe", AttackModel.SPECTRE),
    ("STT{ld}", AttackModel.SPECTRE),
    ("STT{ld}", AttackModel.FUTURISTIC),
    ("STT{ld+fp}", AttackModel.FUTURISTIC),
    ("Static L1", AttackModel.SPECTRE),
    ("Static L2", AttackModel.FUTURISTIC),
    ("Static L3", AttackModel.SPECTRE),
    ("Hybrid", AttackModel.SPECTRE),
    ("Hybrid", AttackModel.FUTURISTIC),
    ("Perfect", AttackModel.FUTURISTIC),
]


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), length=st.integers(5, 30))
@pytest.mark.parametrize("config_name,model", GRID)
def test_random_programs_commit_golden_stream(config_name, model, seed, length):
    rng = random.Random(seed)
    program = _random_program(rng, length)
    config = config_by_name(config_name)
    core = Core(
        program,
        protection=make_protection(config, model),
        check_golden=True,  # every commit compared against the ISS
    )
    result = core.run(max_instructions=20_000, max_cycles=400_000)
    assert core.halted, f"did not halt under {config_name}/{model}"

    golden = Interpreter(program)
    golden.run(max_instructions=100_000)
    assert result.instructions == golden.instructions_retired
    # Architectural register state lives in the PRF behind the rename map.
    for arch in range(32):
        core_value = core.prf.value[core.rename_map.lookup(arch)]
        assert core_value == golden.state.read_reg(arch), f"r{arch}"
    # Both hold exactly the words committed stores wrote (the program's
    # image is shared, never copied), so a store to a wrong address shows.
    assert core.committed.memory == golden.state.memory
