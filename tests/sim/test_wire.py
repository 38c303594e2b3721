"""Property-style wire round-trip tests.

Everything the fabric ships between hosts — requests, outcomes, events,
policies — must survive ``to_dict → json.dumps → json.loads → from_dict``
exactly.  Instead of a handful of hand-picked examples, these tests
generate a few dozen randomized-but-seeded instances per type and assert
the round trip is the identity on every one; a field that serializes
lossily (enum vs. string, tuple vs. list, dropped default) fails loudly
here before it can desync a scheduler from its workers.
"""

import json
import random
from pathlib import Path

import pytest

from repro.common.config import AttackModel, MachineConfig
from repro.fabric.wire import (
    WIRE_SCHEMA_VERSION,
    WireError,
    check_schema,
    decode_outcome,
    encode_outcome,
    envelope,
)
from repro.sim.api import (
    FAILURE_KINDS,
    Instrumentation,
    RunFailure,
    RunMetrics,
    RunRequest,
)
from repro.sim.configs import EVALUATED_CONFIGS
from repro.sim.engine import RetryPolicy
from repro.sim.events import EVENT_SCHEMA_VERSION, RunEvent
from repro.sim.policies import CachePolicy, ExecutionPolicy, JournalPolicy
from repro.workloads import make_indirect_stream, make_pointer_chase

CASES = 25


def wire_trip(payload):
    """The exact bytes-level path a fabric message takes."""
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


def random_retry(rng):
    return RetryPolicy(
        max_retries=rng.randrange(0, 4),
        backoff_base=rng.choice([0.01, 0.5, 2.0]),
        backoff_factor=rng.choice([1.5, 2.0]),
        backoff_max=rng.choice([5.0, 30.0]),
        jitter=rng.choice([0.0, 0.1]),
        retry_kinds=frozenset(
            rng.sample(["crash", "timeout"], rng.randrange(1, 3))
        ),
    )


def random_execution(rng):
    return ExecutionPolicy(
        jobs=rng.randrange(1, 9),
        timeout=rng.choice([None, 30.0, 600.0]),
        retries=random_retry(rng),
        hang_window=rng.choice([None, 50_000]),
        fabric=rng.choice([None, "http://scheduler:8700"]),
        fail_on_unhalted=rng.random() < 0.5,
    )


@pytest.mark.parametrize("seed", range(CASES))
class TestRoundTrips:
    """For each wire type: from_dict(wire_trip(to_dict(x))) == x."""

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

    def test_retry_policy(self, seed):
        policy = random_retry(make_rng(seed))
        assert RetryPolicy.from_dict(wire_trip(policy.to_dict())) == policy

    def test_execution_policy(self, seed):
        policy = random_execution(make_rng(seed))
        assert ExecutionPolicy.from_dict(wire_trip(policy.to_dict())) == policy

    def test_outcome_envelope(self, seed):
        rng = make_rng(seed)
        outcome = random_metrics(rng) if seed % 2 else random_failure(rng)
        assert decode_outcome(wire_trip(encode_outcome(outcome))) == outcome


def test_cache_policy_round_trip(tmp_path):
    for policy in (
        CachePolicy(),
        CachePolicy(enabled=False),
        CachePolicy(cache_dir=tmp_path),
    ):
        assert CachePolicy.from_dict(wire_trip(policy.to_dict())) == policy


def test_journal_policy_round_trip(tmp_path):
    for policy in (
        JournalPolicy(),
        JournalPolicy(path=tmp_path / "s.journal"),
        JournalPolicy(path=tmp_path / "s.journal", resume=True),
    ):
        assert JournalPolicy.from_dict(wire_trip(policy.to_dict())) == policy


class TestSchemaGuards:
    def test_envelope_stamps_current_version(self):
        assert envelope(x=1) == {"schema": WIRE_SCHEMA_VERSION, "x": 1}

    def test_newer_schema_rejected(self):
        with pytest.raises(WireError, match="newer"):
            check_schema({"schema": WIRE_SCHEMA_VERSION + 1})

    def test_current_and_missing_schema_accepted(self):
        check_schema({"schema": WIRE_SCHEMA_VERSION})
        check_schema({})

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

    def test_unknown_outcome_kind_rejected(self):
        with pytest.raises(WireError, match="unknown outcome kind"):
            decode_outcome({"kind": "surprise", "payload": {}})
