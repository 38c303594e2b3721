"""Properties of the durable-storage rule (``repro.common.durable``).

A log tolerates only a torn tail: every truncation of a written log reads
back a prefix of what was appended, and a bad line anywhere before the
tail raises with its line number.  A blob is checked on read: every
truncation and every single-byte flip of a result-cache entry is a miss,
never different metrics.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.common.config import AttackModel
from repro.common.durable import BlobStore, CorruptLogError, JsonlLog
from repro.isa.assembler import assemble
from repro.sim.api import RunMetrics, RunRequest
from repro.sim.cache import ResultCache, cache_key
from repro.sim.configs import config_by_name
from repro.workloads.workload import Workload

SEED = 1512

json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
records = st.lists(
    st.dictionaries(st.text(max_size=5), json_values, max_size=4), min_size=1, max_size=6
)


def written_log(directory, appended):
    log = JsonlLog(Path(directory) / "log.jsonl")
    for record in appended:
        log.append(record)
    log.close()
    return log


@seed(SEED)
@settings(max_examples=40, deadline=None)
@given(records)
def test_every_truncation_reads_back_a_prefix(appended):
    with tempfile.TemporaryDirectory() as directory:
        log = written_log(directory, appended)
        text = log.path.read_text()
        for cut in range(len(text) + 1):
            log.path.write_text(text[:cut])
            read = log.read()
            assert read == appended[: len(read)]
            # Nothing complete is lost: every newline-terminated record
            # survives, and so does a final record cut only before "\n".
            assert len(read) >= text[:cut].count("\n")


@seed(SEED)
@settings(max_examples=40, deadline=None)
@given(records, st.data())
def test_garbage_line_raises_unless_it_is_the_tail(appended, data):
    garbage = data.draw(
        st.text(min_size=1, max_size=12).map(lambda text: "#" + text.replace("\n", " "))
    )
    position = data.draw(st.integers(min_value=0, max_value=len(appended)))
    lines = [json.dumps(record, sort_keys=True) for record in appended]
    lines.insert(position, garbage)
    text = "\n".join(lines) + "\n"
    with tempfile.TemporaryDirectory() as directory:
        log = JsonlLog(Path(directory) / "log.jsonl")
        log.path.write_text(text)
        if position == len(appended):
            assert log.read() == appended  # a torn tail is dropped
        else:
            with pytest.raises(CorruptLogError) as raised:
                log.read()
            assert raised.value.line == position + 1
            assert str(raised.value) == (
                f"{log.path}:{position + 1}: corrupt record (not a torn tail)"
            )


def test_append_after_a_torn_tail_starts_a_fresh_line(tmp_path):
    """A writer restarting after a crash mid-append must not glue its next
    record onto the torn line, which would turn the tail into mid-file
    corruption on the following load."""
    path = tmp_path / "q.jsonl"
    assert JsonlLog(path).read() == []  # a missing log reads empty
    path.write_text('{"n": 0}\n{"n": 1}\n{"n": 2, "tor')
    log = JsonlLog(path)
    assert log.read() == [{"n": 0}, {"n": 1}]
    log.append({"n": 3})
    log.close()
    assert JsonlLog(path).read() == [{"n": 0}, {"n": 1}, {"n": 3}]
    path.write_text("{")  # a log that is nothing but a torn line
    log = JsonlLog(path)
    log.append({"n": 4})
    log.close()
    assert log.read() == [{"n": 4}]


def test_blob_store_layout_and_clear(tmp_path):
    store = BlobStore(tmp_path, version=7, suffix=".bin")
    key = "ab" + "0" * 62
    assert store.read(key) is None
    path = store.write(key, b"payload")
    assert path == tmp_path / "v7" / "ab" / f"{key}.bin"
    assert store.has(key) and len(store) == 1 and store.read(key) == b"payload"
    assert store.clear() == 1 and len(store) == 0


metrics = st.builds(
    RunMetrics,
    workload=st.just("w"),
    config=st.just("Hybrid"),
    attack_model=st.just(AttackModel.SPECTRE),
    cycles=st.integers(min_value=0, max_value=10**9),
    instructions=st.integers(min_value=0, max_value=10**9),
    stats=st.dictionaries(
        st.sampled_from(["core.a", "core.b", "mem.c"]),
        st.one_of(st.integers(0, 10**6), st.floats(0, 1e6, allow_nan=False)),
        max_size=3,
    ),
)


@seed(SEED)
@settings(max_examples=15, deadline=None)
@given(metrics, st.integers(min_value=1, max_value=255))
def test_cache_entry_truncations_and_flips_never_change_metrics(stored, mask):
    """Every truncation is a miss.  Every single-byte flip is a miss or —
    when the flipped entry decodes to the same content, e.g. a space turned
    into a tab or an exponent ``e`` into ``E`` — the identical metrics;
    never different metrics."""
    request = RunRequest(Workload("w", assemble("halt", name="w")), config_by_name("Hybrid"))
    with tempfile.TemporaryDirectory() as directory:
        cache = ResultCache(directory)
        key = cache_key(request)
        path = cache.put(request, stored, key)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            assert cache.get(request, key) is None
        misses = 0
        for position in range(len(blob)):
            flipped = bytearray(blob)
            flipped[position] ^= mask
            path.write_bytes(bytes(flipped))
            loaded = cache.get(request, key)
            if loaded is None:
                misses += 1
            else:
                assert loaded.to_dict() == stored.to_dict()
        assert misses >= len(blob) // 2
