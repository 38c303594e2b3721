"""``Program`` is an immutable value whose ``digest`` is its identity.

Both cache keys (the result cache's ``cache_key`` and the replay store's
``trace_key``) take the program through ``digest``, so the digest must
follow content exactly: insertion order and labels must not move it, any
change of a word's value or type must, and it must survive every way a
program travels (pickled to a pool worker, JSON into ``repro scan``).
"""

import dataclasses
import json
import pickle

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.common.config import AttackModel
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.replay.trace import trace_key
from repro.sim.api import RunRequest
from repro.sim.cache import cache_key
from repro.sim.configs import config_by_name
from repro.workloads.workload import Workload

SEED = 1616

words = st.one_of(st.integers(), st.floats(allow_nan=False))
memories = st.dictionaries(st.integers(min_value=0, max_value=2**20), words, max_size=24)
codes = st.lists(
    st.tuples(words, st.none() | st.text(max_size=3)).map(
        lambda pair: Instruction(Opcode.LI, rd=1, imm=pair[0], label=pair[1])
    ),
    max_size=6,
).map(lambda body: [*body, Instruction(Opcode.HALT)])
programs = st.builds(Program, codes, memories, st.text(max_size=5))
#: Ints that do not fit a signed 64-bit word.  The pair differs by 2**64,
#: so an encoding that truncated to int64 would collide.
wide_ints = st.integers(min_value=2**63, max_value=2**80) | st.integers(
    min_value=-(2**80), max_value=-(2**63) - 1
)


def _program(memory=None, imm=0):
    code = [Instruction(Opcode.LI, rd=1, imm=imm), Instruction(Opcode.HALT)]
    return Program(code, memory or {}, name="p")


def _request(program):
    return RunRequest(
        workload=Workload("w", program),
        config=config_by_name("Hybrid"),
        attack_model=AttackModel.SPECTRE,
    )


def test_program_rejects_mutation():
    program = _program({8: 1})
    with pytest.raises(TypeError):
        program.initial_memory[8] = 2
    with pytest.raises(TypeError):
        program.instructions[0] = Instruction(Opcode.HALT)
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.name = "other"
    assert program == _program({8: 1})


def test_keys_follow_content_not_identity():
    """A key can never go stale: the program it was taken from cannot
    change, and a program one word away keys differently."""
    program = _program({8: 5, 16: 6})
    request = _request(program)
    keys = (trace_key(request), cache_key(request))
    with pytest.raises(TypeError):
        program.initial_memory[8] = 6
    assert (trace_key(request), cache_key(request)) == keys
    neighbour = _request(_program({8: 6, 16: 6}))
    assert trace_key(neighbour) != keys[0]
    assert cache_key(neighbour) != keys[1]


def test_construction_copies_the_image():
    memory = {0: 1}
    program = _program(memory)
    memory[0] = 2
    assert program.initial_memory[0] == 1
    assert "digest" not in vars(program), "hashing must wait for first use"


@seed(SEED)
@settings(max_examples=60, deadline=None)
@given(memories, st.randoms(use_true_random=False))
def test_digest_ignores_insertion_order(memory, rng):
    items = list(memory.items())
    rng.shuffle(items)
    assert _program(dict(items)).digest == _program(memory).digest


@seed(SEED)
@settings(max_examples=30, deadline=None)
@given(wide_ints)
def test_digest_keeps_values_and_types_apart(wide):
    pairs = [(1, 1.0), (0.0, -0.0), (wide, wide + 2**64 if wide > 0 else wide - 2**64)]
    for a, b in pairs:
        assert _program({0: a}).digest != _program({0: b}).digest, (a, b)
        assert _program(imm=a).digest != _program(imm=b).digest, (a, b)


@seed(SEED)
@settings(max_examples=40, deadline=None)
@given(programs)
def test_digest_ignores_labels_and_name(program):
    relabeled = Program(
        [dataclasses.replace(inst, label="x") for inst in program.instructions],
        program.initial_memory,
        name=program.name + "!",
    )
    assert relabeled.digest == program.digest


@seed(SEED)
@settings(max_examples=40, deadline=None)
@given(programs)
def test_round_trips_keep_equality_and_digest(program):
    fresh = pickle.loads(pickle.dumps(program))
    digest = program.digest
    # The rename stage's decoded source tuples are derived like the digest:
    # they neither change it nor travel.
    sources = program.sources
    assert sources == tuple(inst.sources() for inst in program.instructions)
    hashed = pickle.loads(pickle.dumps(program))
    wire = Program.from_dict(json.loads(json.dumps(program.to_dict())))
    for copy in (fresh, hashed, wire):
        assert copy == program
        assert copy.digest == digest
        assert copy.sources == sources
    unpickled = vars(pickle.loads(pickle.dumps(program)))
    assert "digest" not in unpickled and "sources" not in unpickled
    with pytest.raises(TypeError):
        hashed.initial_memory[0] = 1
