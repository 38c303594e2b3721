"""``MemoryImage`` is a dict in every observable way, stored compactly.

An image is built two ways, and each is checked against a plain dict
built the same way; the image must then iterate, measure, look up, hash
and pickle exactly like the dict.  The constructor takes a dict produced
by a generated sequence of assignments and fills, overwrites and type
changes inside would-be runs included; addresses mix aligned words (which
the image keeps in typed-array runs) with unaligned ones, and values mix
run-typed words with the ones no run can hold: ints beyond int64,
``-0.0``, ``nan``, and ``1`` against ``1.0``.  The ``ImageBuilder`` takes
typed arrays (32- and 64-bit ints, doubles) over disjoint regions, in
any order, and rejects the rest.

The isolation tests check the other half of the contract: simulated runs
read through a program's image and never write into it.
"""

import hashlib
import pickle
from array import array

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.common.config import AttackModel
from repro.isa import ArchState, Interpreter, assemble
from repro.isa.image import ImageBuilder, MemoryImage
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import _CODE_FIELDS, Program
from repro.replay.recorder import TraceRecorder
from repro.replay.replayer import replay_execute
from repro.sim.api import RunRequest, execute
from repro.sim.configs import config_by_name
from repro.workloads.workload import Workload

SEED = 2929
INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
EDGE_WORDS = [2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**64 + 5, -(2**70), 1, 1.0, 0.0, -0.0]
words = st.one_of(
    st.integers(min_value=-3, max_value=3),
    INT64,
    st.integers(),
    st.floats(),
    st.sampled_from([*EDGE_WORDS, float("nan"), True]),
)
addresses = st.one_of(
    st.integers(min_value=-4, max_value=40).map(lambda k: 8 * k),
    st.integers(min_value=-40, max_value=330),
)
fill_values = st.one_of(
    st.lists(INT64, max_size=12),
    st.lists(st.floats(), max_size=12),
    st.lists(words, max_size=12),
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("set"), addresses, words),
        st.tuples(st.just("fill"), addresses, fill_values),
    ),
    max_size=30,
)
INT32 = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    st.sampled_from([-(2**31), 2**31 - 1, -(2**31) + 1, 2**31 - 2]),
)
typed_runs = st.one_of(
    st.lists(INT32, max_size=12).map(lambda values: array("i", values)),
    st.lists(INT64, max_size=12).map(lambda values: array("q", values)),
    st.lists(st.floats(), max_size=12).map(lambda values: array("d", values)),
)
CODE = [Instruction(Opcode.LI, rd=1, imm=3), Instruction(Opcode.HALT)]


def _assign(ops):
    """The dict that the assignments and fills in ``ops`` leave behind."""
    reference = {}
    for kind, addr, value in ops:
        if kind == "set":
            reference[addr] = value
        else:
            for i, word in enumerate(value):
                reference[addr + 8 * i] = word
    return reference


@st.composite
def disjoint_fills(draw):
    """``(base, array)`` pairs over disjoint aligned regions, laid out
    low to high (adjacent ones included) and returned in a drawn order."""
    fills, base = [], 8 * draw(st.integers(-8, 8))
    for run in draw(st.lists(typed_runs, max_size=6)):
        base += 8 * draw(st.integers(0, 3))
        fills.append((base, run))
        base += 8 * len(run)
    return draw(st.permutations(fills))


def _reference_digest(reference):
    code = [
        (inst.opcode.name, *[getattr(inst, name) for name in _CODE_FIELDS]) for inst in CODE
    ]
    material = repr((code, sorted(reference.items())))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _assert_same_as(image, reference):
    # ``repr`` tells 1 from 1.0 and -0.0 from 0.0, and prints every nan alike.
    assert list(image) == list(reference)
    assert len(image) == len(reference)
    assert repr(list(image.items())) == repr(list(reference.items()))
    assert repr(list(image.values())) == repr(list(reference.values()))
    for addr, value in reference.items():
        assert addr in image
        assert repr(image[addr]) == repr(value)
        assert repr(image.get(addr)) == repr(value)
    for addr in range(-72, 340):
        if addr not in reference:
            assert addr not in image
            assert image.get(addr) is None
            assert image.get(addr, 5) == 5
            with pytest.raises(KeyError):
                image[addr]
    chunks = list(image.sorted_chunks(size=3))
    assert all(chunks), "the digest separates chunks; none may be empty"
    pairs = [pair for chunk in chunks for pair in chunk]
    assert repr(pairs) == repr(sorted(reference.items()))
    assert Program(CODE, image).digest == _reference_digest(reference)
    unpickled = pickle.loads(pickle.dumps(image))
    assert repr(list(unpickled.items())) == repr(list(reference.items()))
    if not any(value != value for value in reference.values()):  # nan is not == itself
        assert image == reference and reference == image
        assert unpickled == image


@seed(SEED)
@settings(max_examples=300, deadline=None)
@given(operations)
@example([])
@example([("fill", 0, [1, 2, 3]), ("set", 8, 1.0), ("set", 8, 2)])
@example([("fill", 0, [0.5, -0.0, 2.5]), ("set", 4, 1), ("set", 16, 7)])
@example([("set", 0, 1), ("set", 8, 2), ("set", 8, 2**64), ("set", 16, 3)])
def test_constructed_image_behaves_like_the_dict_it_copies(ops):
    reference = _assign(ops)
    _assert_same_as(MemoryImage(reference), reference)


@seed(SEED)
@settings(max_examples=200, deadline=None)
@given(disjoint_fills())
@example([])
@example([(8, array("q", [3])), (0, array("q", [1])), (16, array("d", [1.0, -0.0]))])
@example([(16, array("i", [2**31 - 1, -(2**31)])), (0, array("q", [2**31, -(2**31) - 1]))])
@example([(0, array("i", [1, 2])), (16, array("q", [3])), (24, array("i", [4]))])
def test_filled_image_behaves_like_the_dict_filled_the_same_way(fills):
    builder = ImageBuilder()
    for base, run in fills:
        builder.fill(base, run)
    reference = _assign([("fill", base, list(run)) for base, run in fills])
    _assert_same_as(builder.build(), reference)


def test_fill_takes_only_typed_arrays_over_free_aligned_regions():
    builder = ImageBuilder()
    builder.fill(64, array("q", [1, 2, 3]))
    for base, values in [
        (0, [1, 2]),  # a list, not an array
        (0, array("b", [1, 2])),  # arrays no run holds
        (0, array("f", [1.0, 2.0])),
    ]:
        with pytest.raises(TypeError):
            builder.fill(base, values)
    for base in (4, 56, 72, 80):  # unaligned, then three overlaps
        with pytest.raises(ValueError):
            builder.fill(base, array("q", [9, 9]))
    builder.fill(48, array("d", [0.5, 1.5]))  # ends where the first run starts
    builder.fill(88, array("q", []))
    builder.fill(88, array("i", [-(2**31), 2**31 - 1]))  # 32-bit ints are a run too
    assert dict(builder.build()) == {
        64: 1, 72: 2, 80: 3, 48: 0.5, 56: 1.5, 88: -(2**31), 96: 2**31 - 1
    }


def test_image_rejects_every_mutation():
    image = MemoryImage({0: 1, 8: 2, 3: 4})
    with pytest.raises(TypeError):
        image[0] = 9
    with pytest.raises(TypeError):
        del image[3]
    assert not hasattr(image, "update") and not hasattr(image, "pop")
    assert dict(image) == {0: 1, 8: 2, 3: 4}


def test_build_hands_over_and_empties_the_builder():
    builder = ImageBuilder()
    builder.fill(0, array("q", [1, 2]))
    image = builder.build()
    builder.fill(0, array("q", [5, 6]))
    assert dict(image) == {0: 1, 8: 2}
    assert dict(builder.build()) == {0: 5, 8: 6}
    assert len(builder.build()) == 0


def test_a_program_owns_a_built_image_without_copying():
    builder = ImageBuilder()
    builder.fill(64, array("d", [1.5, 2.5]))
    image = builder.build()
    program = Program(CODE, image)
    assert program.initial_memory is image
    assert pickle.loads(pickle.dumps(program)).initial_memory == image


# --------------------------------------------------------------------------
# Isolation: simulated state reads through the image and never writes it.

TABLE = 1 << 12
SOURCE = f"""
        li r1, 0
        li r2, 4
        li r12, 3
    loop:
        shl r9, r1, r12
        load r5, r9, {TABLE}         ; an initial word, then the stored one
        addi r5, r5, 100
        store r5, r9, {TABLE}        ; overwrite it
        load r6, r9, {TABLE}
        add r3, r3, r6
        addi r1, r1, 1
        blt r1, r2, loop
        fload f0, r0, {TABLE + 64}
        fadd f0, f0, f0
        fstore f0, r0, {TABLE + 64}  ; overwrite a float word
        load r7, r0, {TABLE + 4}     ; an unaligned (loose) word
        store r3, r0, {TABLE + 4}
        halt
"""


def _storing_program():
    words = {TABLE + 8 * i: value for i, value in enumerate([5, 6, 7, 8])}
    image = MemoryImage({**words, TABLE + 64: 0.25, TABLE + 4: 11})
    assert len(image._runs) == 1  # the four table words are one run
    return assemble(SOURCE, image, name="stores_over_its_image")


def test_runs_never_write_into_the_image():
    program = _storing_program()
    saved = dict(program.initial_memory)
    request = RunRequest(
        workload=Workload("iso", program, warm_addresses=(TABLE,)),
        config=config_by_name("Hybrid"),
        attack_model=AttackModel.SPECTRE,
    )
    runs = []
    for _ in range(2):
        interpreter = Interpreter(program)
        interpreter.run()
        assert interpreter.state.image is program.initial_memory
        assert interpreter.state.memory == {
            TABLE: 105, TABLE + 8: 106, TABLE + 16: 107, TABLE + 24: 108,
            TABLE + 64: 0.5, TABLE + 4: 105 + 106 + 107 + 108,
        }
        live = execute(request)
        replayed = replay_execute(request, TraceRecorder().record(request))
        assert replayed == live
        runs.append((live, replayed))
        assert program.initial_memory == saved
    assert runs[0] == runs[1]
    assert runs[0][0].halted


def test_snapshot_copies_written_words_and_shares_the_image():
    program = _storing_program()
    state = ArchState(image=program.initial_memory)
    state.write_mem(TABLE, 1)
    snapshot = state.snapshot()
    assert snapshot.image is state.image
    assert snapshot.memory == state.memory and snapshot.memory is not state.memory
    state.write_mem(TABLE, 2)
    state.write_mem(TABLE + 8, 3)
    assert snapshot.read_mem(TABLE) == 1
    assert snapshot.read_mem(TABLE + 8) == 6  # read through to the image
    assert snapshot.read_mem(TABLE + 1000) == 0
    assert state.read_mem(TABLE + 8) == 3
    assert program.initial_memory[TABLE + 8] == 6
