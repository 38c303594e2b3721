"""Pinned wire bytes: the exact JSON each serialized type emits.

The round trips in ``test_wire`` cannot see a *symmetric* format change —
enums moving from value to name on both the encoding and the decoding
side still round-trip — yet such a change desyncs a fabric peer one
release behind and orphans journal entries written before it.  This test
pins the SHA-256 of ``json.dumps(x.to_dict())`` (key order kept) for a
seeded corpus: ``test_wire``'s generators, each serialized class built
from its defaults, ``EVALUATED_CONFIGS``, and sample transport, chaos and
fault specs.  It pins :func:`~repro.sim.cache.cache_key` of every
generated request too.

A deliberate format change must come with a ``WIRE_SCHEMA_VERSION`` (or
cache ``SCHEMA_VERSION``) bump; only then rewrite the pins with
``PYTHONPATH=src python -m tests.sim.test_wire_pin``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.common.config import (
    AttackModel,
    CacheConfig,
    CoreConfig,
    DramConfig,
    MachineConfig,
    ProtectionConfig,
    TlbConfig,
)
from repro.fabric.chaos import ChaosSpec
from repro.fabric.transport import TransportPolicy
from repro.isa.assembler import assemble
from repro.sim.api import Instrumentation, RunFailure, RunMetrics, RunRequest
from repro.sim.cache import cache_key
from repro.sim.configs import EVALUATED_CONFIGS
from repro.sim.engine import RetryPolicy
from repro.sim.events import RunEvent
from repro.sim.policies import CachePolicy, ExecutionPolicy, JournalPolicy
from repro.testing.faults import FaultSpec
from repro.workloads.workload import Workload
from tests.sim.test_wire import (
    CASES,
    make_rng,
    random_event,
    random_execution,
    random_failure,
    random_metrics,
    random_request,
    random_retry,
)

PIN_FILE = Path(__file__).with_name("wire_pin.json")

GENERATORS = {
    "request": random_request,
    "metrics": random_metrics,
    "failure": random_failure,
    "event": random_event,
    "retry": random_retry,
    "execution": random_execution,
}


def corpus() -> dict[str, object]:
    """Every pinned object, by a stable label."""
    items: dict[str, object] = {}
    for kind, generate in GENERATORS.items():
        for seed in range(CASES):
            items[f"{kind}/{seed}"] = generate(make_rng(seed))
    program = assemble("li r1, 7\nhalt", {0x1000: 5, 0x1008: 2.5}, name="pin")
    transport = TransportPolicy(
        retries=0, backoff_base=0.5, jitter=0.0, breaker_threshold=0, breaker_reset=1.5
    )
    items.update(
        {
            "default/CacheConfig": CacheConfig("L1D", 32 * 1024, 64, 8, 2),
            "default/TlbConfig": TlbConfig(),
            "default/DramConfig": DramConfig(),
            "default/CoreConfig": CoreConfig(),
            "default/ProtectionConfig": ProtectionConfig(),
            "default/MachineConfig": MachineConfig(),
            "default/Workload": Workload("pin", program),
            "default/RunRequest": RunRequest(Workload("pin", program), EVALUATED_CONFIGS[0]),
            "default/RunMetrics": RunMetrics("pin", "Unsafe", AttackModel.SPECTRE, 10, 2),
            "default/RunFailure": RunFailure(
                "pin", "Unsafe", AttackModel.FUTURISTIC, "RuntimeError", "boom"
            ),
            "default/Instrumentation": Instrumentation(),
            "default/RetryPolicy": RetryPolicy(),
            "default/ExecutionPolicy": ExecutionPolicy(),
            "default/CachePolicy": CachePolicy(),
            "default/JournalPolicy": JournalPolicy(),
            "default/TransportPolicy": TransportPolicy(),
            "default/ChaosSpec": ChaosSpec(),
            "default/FaultSpec": FaultSpec("crash"),
            "default/RunEvent": RunEvent("queued", 0, "pin", "Unsafe", "spectre"),
            "sample/TransportPolicy": transport,
            "sample/ExecutionPolicy": ExecutionPolicy(
                jobs=2, retries=3, replay=True, transport=transport
            ),
            "sample/ChaosSpec": ChaosSpec(drop_request=0.1, delay=0.2, corrupt=0.05, limit=3),
            "sample/FaultSpec": FaultSpec("slow", times=2, seconds=0.25),
            "sample/ProtectionConfig": EVALUATED_CONFIGS[6].protection_config(
                AttackModel.FUTURISTIC
            ),
        }
    )
    for config in EVALUATED_CONFIGS:
        items[f"config/{config.name}"] = config
    return items


def current_pins() -> dict[str, str]:
    pins = {}
    for label, obj in corpus().items():
        blob = json.dumps(obj.to_dict())
        pins[label] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        if isinstance(obj, RunRequest):
            pins[f"cache_key/{label}"] = cache_key(obj)
    return pins


@pytest.fixture(scope="module")
def pins():
    return current_pins()


def test_corpus_matches_pinned_labels(pins):
    assert sorted(pins) == sorted(json.loads(PIN_FILE.read_text()))


def test_wire_bytes_and_cache_keys_are_pinned(pins):
    pinned = json.loads(PIN_FILE.read_text())
    drifted = sorted(label for label in pinned if pins.get(label) != pinned[label])
    assert not drifted, f"wire bytes or cache keys drifted for: {drifted}"


if __name__ == "__main__":
    PIN_FILE.write_text(json.dumps(current_pins(), indent=1, sort_keys=True) + "\n")
