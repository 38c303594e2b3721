"""Tests for the content-addressed on-disk result cache and the sweep
journal that makes interrupted sweeps resumable."""

import dataclasses
import json
import multiprocessing

import pytest

from repro.common.config import AttackModel, MachineConfig
from repro.common.durable import CorruptLogError
from repro.sim.api import FAILURE_CANCELLED, RunFailure, RunMetrics, RunRequest
from repro.sim.cache import ResultCache, SweepJournal, cache_key
from repro.sim.configs import config_by_name
from repro.workloads import make_indirect_stream
from repro.workloads.workload import Workload


def make_workload(name="cache_unit", **overrides):
    params = dict(table_words=512, iterations=60, seed=4)
    params.update(overrides)
    return make_indirect_stream(name, **params)


def make_request(**overrides) -> RunRequest:
    params = dict(
        workload=make_workload(),
        config=config_by_name("Hybrid"),
        attack_model=AttackModel.SPECTRE,
        machine=MachineConfig(),
        check_golden=True,
        max_instructions=200_000,
    )
    params.update(overrides)
    return RunRequest(**params)


def with_memory_word_changed(workload: Workload) -> Workload:
    memory = dict(workload.program.initial_memory)
    memory[min(memory)] += 1
    program = dataclasses.replace(workload.program, initial_memory=memory)
    return dataclasses.replace(workload, program=program)


def metrics_for(request: RunRequest, cycles=1234) -> RunMetrics:
    return RunMetrics(
        workload=request.workload.name,
        config=request.config.name,
        attack_model=request.attack_model,
        cycles=cycles,
        instructions=777,
        stats={"stt.sdo.predictions": 10, "core.obl_fail_squashes": 2.0},
    )


class TestCacheKey:
    def test_same_inputs_same_key(self):
        assert cache_key(make_request()) == cache_key(make_request())

    def test_key_is_hex_sha256(self):
        key = cache_key(make_request())
        assert len(key) == 64
        int(key, 16)  # must parse as hex

    def test_workload_name_and_description_excluded(self):
        """Content-addressed: a renamed but identical workload hits."""
        renamed = make_workload(name="something_else")
        assert cache_key(make_request()) == cache_key(make_request(workload=renamed))

    def test_any_field_change_changes_key(self):
        base = cache_key(make_request())
        variations = {
            "config": make_request(config=config_by_name("Perfect")),
            # Unlike the workload's, the config's name is part of the key.
            "config_name": make_request(
                config=dataclasses.replace(config_by_name("Hybrid"), name="Hybrid2")
            ),
            "attack_model": make_request(attack_model=AttackModel.FUTURISTIC),
            "check_golden": make_request(check_golden=False),
            "max_instructions": make_request(max_instructions=100_000),
            "program": make_request(workload=make_workload(iterations=61)),
            "memory_word": make_request(workload=with_memory_word_changed(make_workload())),
            "warm_set": make_request(
                workload=dataclasses.replace(
                    make_workload(), warm_addresses=(0x1000,)
                )
            ),
            "max_cycles": make_request(
                workload=dataclasses.replace(make_workload(), max_cycles=999_999)
            ),
            "machine": make_request(
                machine=dataclasses.replace(
                    MachineConfig(),
                    core=dataclasses.replace(MachineConfig().core, rob_entries=64),
                )
            ),
        }
        keys = {field: cache_key(request) for field, request in variations.items()}
        for field, key in keys.items():
            assert key != base, f"changing {field} must change the key"
        assert len(set(keys.values())) == len(keys), "variations must not collide"

    def test_instruction_labels_excluded(self):
        """Labels are compare=False metadata and must not affect the key."""
        workload = make_workload()
        relabeled_program = dataclasses.replace(
            workload.program,
            instructions=[
                dataclasses.replace(inst, label="x") for inst in workload.program.instructions
            ],
        )
        relabeled = Workload(
            workload.name, relabeled_program,
            warm_addresses=workload.warm_addresses, max_cycles=workload.max_cycles,
        )
        assert cache_key(make_request()) == cache_key(make_request(workload=relabeled))


class TestResultCache:
    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = make_request()
        assert cache.get(request, cache_key(request)) is None
        assert len(cache) == 0

    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = make_request()
        stored = metrics_for(request)
        cache.put(request, stored, cache_key(request))
        assert len(cache) == 1
        assert request in cache
        loaded = cache.get(request, cache_key(request))
        assert loaded == stored
        assert loaded.stats == stored.stats

    def test_hit_rebrands_to_request_identity(self, tmp_path):
        """A renamed identical workload hits, with the new name stamped on."""
        cache = ResultCache(tmp_path)
        request = make_request()
        cache.put(request, metrics_for(request), cache_key(request))
        renamed = make_request(workload=make_workload(name="other_name"))
        loaded = cache.get(renamed, cache_key(renamed))
        assert loaded is not None
        assert loaded.workload == "other_name"
        assert loaded.cycles == 1234

    def test_different_config_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = make_request()
        cache.put(request, metrics_for(request), cache_key(request))
        other = make_request(config=config_by_name("Perfect"))
        assert cache.get(other, cache_key(other)) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = make_request()
        cache.put(request, metrics_for(request), cache_key(request))
        path = cache.path_for(cache_key(request))
        path.write_text("{not json")
        assert cache.get(request, cache_key(request)) is None

    def test_flipped_digit_is_a_miss(self, tmp_path):
        """Regression: a v2 entry with one digit changed on disk was served
        as truth; the entry's CRC now turns it into a miss."""
        cache = ResultCache(tmp_path)
        request = make_request()
        cache.put(request, metrics_for(request, cycles=1234), cache_key(request))
        path = cache.path_for(cache_key(request))
        text = path.read_text()
        assert '"cycles": 1234' in text
        path.write_text(text.replace('"cycles": 1234', '"cycles": 2234'))
        assert cache.get(request, cache_key(request)) is None

    def test_wrong_key_in_payload_is_a_miss(self, tmp_path):
        """A file landing under the wrong name must not be trusted."""
        cache = ResultCache(tmp_path)
        request = make_request()
        cache.put(request, metrics_for(request), cache_key(request))
        path = cache.path_for(cache_key(request))
        payload = json.loads(path.read_text())
        payload["key"] = "0" * 64
        path.write_text(json.dumps(payload))
        assert cache.get(request, cache_key(request)) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = make_request()
        cache.put(request, metrics_for(request), cache_key(request))
        assert cache.clear() == 1
        assert cache.get(request, cache_key(request)) is None
        assert len(cache) == 0

    def test_metrics_roundtrip_preserves_numbers_exactly(self, tmp_path):
        """The JSON round trip must not perturb cycles/stats (byte-identical
        figure output on cache hits depends on this)."""
        cache = ResultCache(tmp_path)
        request = make_request()
        stored = RunMetrics(
            workload=request.workload.name,
            config=request.config.name,
            attack_model=request.attack_model,
            cycles=987654321,
            instructions=123456,
            stats={"a": 0.1 + 0.2, "b": 3, "c": 1e-17},
        )
        cache.put(request, stored, cache_key(request))
        assert cache.get(request, cache_key(request)) == stored


class TestConcurrentWriters:
    def test_put_stages_tempfile_next_to_the_entry(self, tmp_path, monkeypatch):
        """Atomicity of ``put`` rests on ``os.replace``, which is only
        atomic within one filesystem — so the tempfile must be created in
        the entry's own directory, never in some global /tmp."""
        import tempfile as tempfile_module

        seen_dirs = []
        real_mkstemp = tempfile_module.mkstemp

        def spying_mkstemp(*args, **kwargs):
            seen_dirs.append(kwargs.get("dir"))
            return real_mkstemp(*args, **kwargs)

        monkeypatch.setattr(tempfile_module, "mkstemp", spying_mkstemp)
        cache = ResultCache(tmp_path)
        request = make_request()
        path = cache.put(request, metrics_for(request), cache_key(request))
        assert seen_dirs == [path.parent]

    def test_racing_writers_never_produce_a_torn_entry(self, tmp_path):
        """Two processes hammering the same key: every read observes either
        a miss or one writer's complete entry, never a mixture."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("stress test forks writer processes")
        ctx = multiprocessing.get_context("fork")
        cache = ResultCache(tmp_path)
        request = make_request()
        key = cache_key(request)
        rounds = 50

        def hammer(cycles_value):
            for _ in range(rounds):
                cache.put(request, metrics_for(request, cycles=cycles_value), key)

        writers = [
            ctx.Process(target=hammer, args=(cycles,)) for cycles in (111, 222)
        ]
        for writer in writers:
            writer.start()
        valid_cycles = {111, 222}
        observed = set()
        try:
            while any(w.is_alive() for w in writers):
                loaded = cache.get(request, key)
                if loaded is not None:
                    assert loaded.cycles in valid_cycles, "torn cache entry"
                    observed.add(loaded.cycles)
        finally:
            for writer in writers:
                writer.join(timeout=30)
        assert all(w.exitcode == 0 for w in writers)
        final = cache.get(request, key)
        assert final is not None and final.cycles in valid_cycles
        assert len(cache) == 1, "one key must map to exactly one entry file"


def failure_for(request: RunRequest, kind="crash") -> RunFailure:
    return RunFailure(
        workload=request.workload.name,
        config=request.config.name,
        attack_model=request.attack_model,
        error_type="RuntimeError",
        message="boom",
        traceback="Traceback...\n",
        kind=kind,
        attempts=2,
    )


class TestSweepJournal:
    def test_round_trip_metrics_and_failures(self, tmp_path):
        path = tmp_path / "sweep.journal"
        request = make_request()
        metrics = metrics_for(request)
        failure = failure_for(request)
        with SweepJournal(path) as journal:
            journal.record("key-metrics", metrics)
            journal.record("key-failure", failure)
        loaded = SweepJournal(path)
        assert loaded.load() == 2
        assert loaded.get("key-metrics") == metrics
        assert loaded.get("key-failure") == failure
        assert loaded.get("missing") is None

    def test_record_is_idempotent_per_key(self, tmp_path):
        path = tmp_path / "sweep.journal"
        request = make_request()
        with SweepJournal(path) as journal:
            journal.record("k", metrics_for(request, cycles=1))
            journal.record("k", metrics_for(request, cycles=2))
        assert len(path.read_text().splitlines()) == 1
        loaded = SweepJournal(path)
        loaded.load()
        assert loaded.get("k").cycles == 1

    def test_cancelled_outcomes_are_never_journalled(self, tmp_path):
        """A cancelled cell never ran — journalling it would make --resume
        skip work that still needs doing."""
        path = tmp_path / "sweep.journal"
        request = make_request()
        with SweepJournal(path) as journal:
            journal.record("k", failure_for(request, kind=FAILURE_CANCELLED))
        assert not path.exists()
        assert SweepJournal(path).load() == 0

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        """A crash mid-write leaves a truncated last line; resume must keep
        every complete record and silently drop the torn one."""
        path = tmp_path / "sweep.journal"
        request = make_request()
        with SweepJournal(path) as journal:
            journal.record("good", metrics_for(request))
        with path.open("a") as fh:
            fh.write('{"key": "torn", "kind": "metr')  # crash mid-write
        loaded = SweepJournal(path)
        assert loaded.load() == 1
        assert loaded.get("good") is not None
        assert loaded.get("torn") is None

    def test_corrupt_midfile_line_raises(self, tmp_path):
        """Only the last line may be torn: a corrupt line before it would
        otherwise silently drop a recorded outcome."""
        path = tmp_path / "sweep.journal"
        request = make_request()
        with SweepJournal(path) as journal:
            for key in ("a", "b", "c"):
                journal.record(key, metrics_for(request))
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:20]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptLogError) as raised:
            SweepJournal(path).load()
        assert raised.value.line == 2

    def test_load_missing_file_is_empty(self, tmp_path):
        journal = SweepJournal(tmp_path / "nope.journal")
        assert journal.load() == 0
        assert len(journal) == 0

    def test_resumed_journal_appends(self, tmp_path):
        """Loading then recording must append to the existing file, not
        truncate it — that is the whole point of the journal."""
        path = tmp_path / "sweep.journal"
        request = make_request()
        with SweepJournal(path) as journal:
            journal.record("first", metrics_for(request, cycles=1))
        resumed = SweepJournal(path)
        resumed.load()
        resumed.record("second", metrics_for(request, cycles=2))
        resumed.close()
        final = SweepJournal(path)
        assert final.load() == 2
