"""Trace format durability: round-trips, torn files, and key addressing.

The on-disk trace is the golden reference of every replayed run, so the
format must fail *loudly* (``TraceFormatError``) on anything it cannot
vouch for — truncation, torn writes, bit rot — and the store must turn
those failures into cache misses (fall back to live execution), never into
a wrong trace.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import AttackModel, MachineConfig
from repro.isa.instructions import Opcode
from repro.isa.iss import CommittedOp
from repro.replay.trace import (
    TRACE_SCHEMA_VERSION,
    ArchTrace,
    TraceCursor,
    TraceExhausted,
    TraceFormatError,
    trace_key,
)
from repro.replay.store import TraceStore
from repro.sim.api import RunRequest
from repro.sim.configs import config_by_name
from repro.workloads import make_mixed_kernel

OPCODES = list(Opcode)

_u32 = st.integers(min_value=0, max_value=2**32 - 1)
_i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_result = st.one_of(
    st.none(),
    _i64,
    st.floats(allow_nan=False, allow_infinity=True, width=64),
)


@st.composite
def committed_ops(draw):
    index = draw(st.integers(min_value=0))
    return CommittedOp(
        seq=index,
        pc=draw(_u32),
        opcode=draw(st.sampled_from(OPCODES)),
        next_pc=draw(_u32),
        taken=draw(st.booleans()),
        mem_addr=draw(st.one_of(st.none(), _i64)),
        result=draw(_result),
    )


def _reseq(records):
    """Record streams are sequential; renumber whatever hypothesis drew."""
    return [dataclasses.replace(op, seq=i) for i, op in enumerate(records)]


@settings(max_examples=50, deadline=None)
@given(st.lists(committed_ops(), max_size=40), st.booleans())
def test_to_bytes_from_bytes_round_trip(records, halted):
    trace = ArchTrace.from_records(_reseq(records), halted=halted)
    clone = ArchTrace.from_bytes(trace.to_bytes())
    assert clone == trace
    assert clone.halted == halted
    assert len(clone) == len(records)


@settings(max_examples=50, deadline=None)
@given(st.lists(committed_ops(), max_size=40))
def test_records_round_trip(records):
    records = _reseq(records)
    trace = ArchTrace.from_records(records, halted=True)
    assert ArchTrace.from_bytes(trace.to_bytes()).records() == records


def _sample_trace(n=16):
    records = [
        CommittedOp(
            seq=i,
            pc=4 * i,
            opcode=Opcode.ADDI,
            next_pc=4 * i + 4,
            taken=bool(i % 2),
            mem_addr=i * 8 if i % 3 == 0 else None,
            result=i * 7,
        )
        for i in range(n)
    ]
    return ArchTrace.from_records(records, halted=True)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_any_truncation_is_detected(data):
    blob = _sample_trace().to_bytes()
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    with pytest.raises(TraceFormatError):
        ArchTrace.from_bytes(blob[:cut])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_any_single_byte_flip_is_detected(data):
    """Bit rot anywhere in the file — header, opcode table, payload — must
    either raise or (header-length games) still never decode silently wrong;
    the CRC plus the length headers make every flip loud."""
    blob = bytearray(_sample_trace().to_bytes())
    pos = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    blob[pos] ^= flip
    with pytest.raises(TraceFormatError):
        ArchTrace.from_bytes(bytes(blob))


def test_bad_magic_rejected():
    blob = b"NOPE" + _sample_trace().to_bytes()[4:]
    with pytest.raises(TraceFormatError, match="magic"):
        ArchTrace.from_bytes(blob)


def test_newer_schema_rejected():
    import struct

    blob = bytearray(_sample_trace().to_bytes())
    struct.pack_into("<H", blob, 4, TRACE_SCHEMA_VERSION + 1)
    with pytest.raises(TraceFormatError, match="newer"):
        ArchTrace.from_bytes(bytes(blob))


def test_cursor_steps_then_exhausts():
    trace = _sample_trace(4)
    cursor = TraceCursor(trace)
    for i in range(4):
        record = cursor.step()
        assert record.seq == i
        assert record.pc == trace.pcs[i]
    assert cursor.position == 4
    with pytest.raises(TraceExhausted):
        cursor.step()


def test_unknown_opcode_name_decodes_to_none():
    """A trace recorded by a build with an opcode this build lacks can never
    silently match: the cursor yields ``None`` where the name is unknown."""
    trace = _sample_trace(2)
    blob = trace.to_bytes()
    renamed = ArchTrace(
        opcode_names=tuple(
            "FUTURE_OP" if name == "ADDI" else name
            for name in trace.opcode_names
        ),
        opcodes=trace.opcodes,
        recflags=trace.recflags,
        pcs=trace.pcs,
        next_pcs=trace.next_pcs,
        mem_addrs=trace.mem_addrs,
        results=trace.results,
        halted=trace.halted,
    )
    assert TraceCursor(renamed).step().opcode is None
    assert TraceCursor(ArchTrace.from_bytes(blob)).step().opcode is Opcode.ADDI


# --------------------------------------------------------------------- store


def test_store_round_trip(tmp_path):
    store = TraceStore(tmp_path)
    trace = _sample_trace()
    key = "ab" + "0" * 62
    store.put(key, trace)
    assert store.has(key)
    assert len(store) == 1
    assert store.get(key) == trace
    assert f"v{TRACE_SCHEMA_VERSION}" in str(store.path_for(key))


def test_store_miss_is_none(tmp_path):
    assert TraceStore(tmp_path).get("cd" + "0" * 62) is None


def test_store_torn_file_is_a_miss(tmp_path):
    store = TraceStore(tmp_path)
    key = "ef" + "0" * 62
    store.put(key, _sample_trace())
    path = store.path_for(key)
    path.write_bytes(path.read_bytes()[:-5])  # torn write
    assert store.get(key) is None


def test_store_corrupt_file_is_a_miss(tmp_path):
    store = TraceStore(tmp_path)
    key = "0f" + "0" * 62
    store.put(key, _sample_trace())
    path = store.path_for(key)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    assert store.get(key) is None


def test_corrupt_store_falls_back_to_live(tmp_path):
    """The durability contract end to end: a store whose file for this
    request is garbage must yield metrics identical to a live run."""
    from repro.replay.replayer import TraceReplayer, replay_or_execute
    from repro.sim.api import execute

    workload = make_mixed_kernel("tr_fb", table_words=512, iterations=10, seed=5)
    request = RunRequest(
        workload=workload,
        config=config_by_name("Unsafe"),
        attack_model=AttackModel.SPECTRE,
    )
    store = TraceStore(tmp_path)
    TraceReplayer(store).ensure(request)
    path = store.path_for(trace_key(request))
    path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
    assert replay_or_execute(request, store).to_dict() == execute(request).to_dict()


# ----------------------------------------------------------------- addressing


def _request(workload, config="Unsafe", model=AttackModel.SPECTRE, **kw):
    return RunRequest(
        workload=workload,
        config=config_by_name(config),
        attack_model=model,
        **kw,
    )


def test_trace_key_ignores_timing_configuration():
    """The record-once/replay-many contract: scheme, attack model, and
    machine parameters must not change the key."""
    workload = make_mixed_kernel("tr_key", table_words=512, iterations=10, seed=6)
    base = trace_key(_request(workload))
    assert trace_key(_request(workload, config="Hybrid")) == base
    assert trace_key(_request(workload, model=AttackModel.FUTURISTIC)) == base
    smaller = MachineConfig(mesh_hop_latency=3)
    assert trace_key(_request(workload, machine=smaller)) == base


def test_trace_key_tracks_architectural_inputs():
    workload = make_mixed_kernel("tr_key2", table_words=512, iterations=10, seed=6)
    other = make_mixed_kernel("tr_key3", table_words=512, iterations=10, seed=7)
    base = trace_key(_request(workload))
    assert trace_key(_request(other)) != base
    assert trace_key(_request(workload, max_instructions=1000)) != base
    memory = dict(workload.program.initial_memory)
    address = min(memory)
    memory[address] += 1
    one_word = dataclasses.replace(
        workload, program=dataclasses.replace(workload.program, initial_memory=memory)
    )
    assert trace_key(_request(one_word)) != base
