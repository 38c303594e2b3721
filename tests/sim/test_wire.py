"""Property-style wire round-trip tests.

Everything persisted as JSON — metrics in the result cache, failures in
the sweep journal, events in the event log, and the requests they describe
— must survive ``to_dict → json.dumps → json.loads → from_dict`` exactly.
Instead of a handful of hand-picked examples, these tests generate a few
dozen randomized-but-seeded instances per type and assert the round trip
is the identity on every one; a field that serializes
lossily (enum vs. string, tuple vs. list, dropped default) fails loudly
here before a resumed sweep can read back something it did not write.
"""

import json
import random
from pathlib import Path

import pytest

from repro.common.config import AttackModel, MachineConfig
from repro.common.durable import CorruptLogError
from repro.sim.api import (
    FAILURE_CANCELLED,
    FAILURE_KINDS,
    Instrumentation,
    RunFailure,
    RunMetrics,
    RunRequest,
)
from repro.sim.cache import SweepJournal
from repro.sim.configs import EVALUATED_CONFIGS
from repro.sim.events import EVENT_SCHEMA_VERSION, JsonlEventLog, RunEvent, read_events
from repro.workloads import make_indirect_stream, make_pointer_chase

CASES = 25


def wire_trip(payload):
    """The exact bytes-level path a persisted record takes."""
    return json.loads(json.dumps(payload))


def make_rng(seed):
    return random.Random(0x5D0 ^ seed)


def random_workload(rng):
    maker = rng.choice([make_indirect_stream, make_pointer_chase])
    if maker is make_indirect_stream:
        return maker(
            f"wl-{rng.randrange(1 << 16):04x}",
            table_words=rng.choice([32, 64, 128]),
            iterations=rng.randrange(4, 64),
            branch_taken_prob=rng.choice([0.25, 0.5, 0.75]),
            seed=rng.randrange(1 << 30),
        )
    return maker(
        f"wl-{rng.randrange(1 << 16):04x}",
        nodes=rng.choice([16, 32, 64]),
        iterations=rng.randrange(4, 64),
        seed=rng.randrange(1 << 30),
    )


def random_instrumentation(rng):
    draw = rng.random()
    if draw < 0.3:
        return Instrumentation(profile=True)
    if draw < 0.45:
        # A Path must come back equal, not as the str it travels as.
        return Instrumentation(
            trace_jsonl=Path(f"trace-{rng.randrange(1 << 16):04x}.jsonl"),
            trace_buffer=rng.choice([256, 4096]),
        )
    return None


def random_request(rng):
    return RunRequest(
        workload=random_workload(rng),
        config=rng.choice(EVALUATED_CONFIGS),
        attack_model=rng.choice(list(AttackModel)),
        machine=MachineConfig(),
        check_golden=rng.random() < 0.5,
        max_instructions=rng.randrange(1_000, 1_000_000),
        instrumentation=random_instrumentation(rng),
        hang_window=rng.choice([None, 10_000, 250_000]),
    )


def random_metrics(rng):
    return RunMetrics(
        workload=f"wl-{rng.randrange(1 << 16):04x}",
        config=rng.choice(EVALUATED_CONFIGS).name,
        attack_model=rng.choice(list(AttackModel)),
        cycles=rng.randrange(1, 1 << 31),
        instructions=rng.randrange(1, 1 << 31),
        stats={
            f"stat.{i}": rng.choice([rng.randrange(1 << 20), rng.random()])
            for i in range(rng.randrange(0, 8))
        },
        termination=rng.choice(["halted", "max_cycles", "max_instructions"]),
    )


def random_failure(rng):
    return RunFailure(
        workload=f"wl-{rng.randrange(1 << 16):04x}",
        config=rng.choice(EVALUATED_CONFIGS).name,
        attack_model=rng.choice(list(AttackModel)),
        error_type=rng.choice(["RuntimeError", "SimulationHang", "WorkerLost"]),
        message=f"boom {rng.randrange(1 << 20)}",
        traceback="Traceback (most recent call last):\n  ...\n",
        kind=rng.choice(sorted(FAILURE_KINDS)),
        attempts=rng.randrange(1, 5),
    )


def random_event(rng):
    kind = rng.choice(["queued", "started", "finished", "failed", "retrying"])
    return RunEvent(
        kind=kind,
        index=rng.randrange(0, 64),
        workload=f"wl-{rng.randrange(1 << 16):04x}",
        config=rng.choice(EVALUATED_CONFIGS).name,
        model=rng.choice(list(AttackModel)).value,
        wall_time=rng.choice([None, round(rng.random() * 100, 6)]),
        cycles=rng.choice([None, rng.randrange(1 << 31)]),
        instructions=rng.choice([None, rng.randrange(1 << 31)]),
        error=rng.choice([None, "RuntimeError: boom"]),
        failure_kind=rng.choice([None, "crash", "timeout"]),
        attempt=rng.choice([None, rng.randrange(1, 4)]),
    )


@pytest.mark.parametrize("seed", range(CASES))
class TestRoundTrips:
    """For each persisted type: from_dict(wire_trip(to_dict(x))) == x."""

    def test_run_request(self, seed):
        request = random_request(make_rng(seed))
        assert RunRequest.from_dict(wire_trip(request.to_dict())) == request

    def test_run_metrics(self, seed):
        metrics = random_metrics(make_rng(seed))
        assert RunMetrics.from_dict(wire_trip(metrics.to_dict())) == metrics

    def test_run_failure(self, seed):
        failure = random_failure(make_rng(seed))
        assert RunFailure.from_dict(wire_trip(failure.to_dict())) == failure

    def test_run_event(self, seed):
        event = random_event(make_rng(seed))
        assert RunEvent.from_dict(wire_trip(event.to_dict())) == event

    def test_outcome_envelope(self, seed, tmp_path):
        """The journal's tagged record (``kind`` + ``payload``) brings an
        outcome back from disk as itself; cancelled cells are not kept."""
        rng = make_rng(seed)
        outcome = random_metrics(rng) if seed % 2 else random_failure(rng)
        path = tmp_path / "s.journal"
        with SweepJournal(path) as journal:
            journal.record("k", outcome)
        loaded = SweepJournal(path)
        loaded.load()
        if isinstance(outcome, RunFailure) and outcome.kind == FAILURE_CANCELLED:
            assert loaded.get("k") is None
        else:
            assert loaded.get("k") == outcome


class TestSchemaGuards:
    def test_envelope_stamps_current_version(self, tmp_path):
        path = tmp_path / "run.events.jsonl"
        with JsonlEventLog(path) as log:
            log(random_event(make_rng(2)))
        assert json.loads(path.read_text())["schema"] == EVENT_SCHEMA_VERSION

    def test_newer_schema_rejected(self, tmp_path):
        path = tmp_path / "run.events.jsonl"
        record = random_event(make_rng(3)).to_dict()
        record["schema"] = EVENT_SCHEMA_VERSION + 1
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="newer"):
            read_events(path)

    def test_current_and_missing_schema_accepted(self):
        payload = random_event(make_rng(4)).to_dict()
        expected = RunEvent.from_dict(dict(payload))
        assert payload["schema"] == EVENT_SCHEMA_VERSION
        del payload["schema"]
        assert RunEvent.from_dict(payload) == expected

    def test_event_newer_schema_rejected(self):
        payload = random_event(make_rng(0)).to_dict()
        payload["schema"] = EVENT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            RunEvent.from_dict(payload)

    def test_event_unknown_fields_ignored(self):
        payload = random_event(make_rng(1)).to_dict()
        expected = RunEvent.from_dict(dict(payload))
        payload.update({"seq": 12, "ts": 1754400000.25, "brand_new_field": "x"})
        assert RunEvent.from_dict(payload) == expected

    def test_unknown_outcome_kind_rejected(self, tmp_path):
        """A journal record of an unknown kind is corruption, not a skip."""
        path = tmp_path / "s.journal"
        good = {"key": "k", "kind": "metrics", "payload": random_metrics(make_rng(5)).to_dict()}
        path.write_text(
            json.dumps({"key": "j", "kind": "surprise", "payload": {}}) + "\n"
            + json.dumps(good) + "\n"
        )
        with pytest.raises(CorruptLogError, match=":1:"):
            SweepJournal(path).load()
