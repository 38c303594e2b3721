"""Pinned wire bytes, and the version each one moves with.

The round trips in ``test_wire`` cannot see a *symmetric* format change —
enums moving from value to name on both the encoding and the decoding
side still round-trip — yet such a change orphans the cache, journal and
event-log entries written before it.  This test pins the SHA-256 of
``json.dumps(x.to_dict())`` (key order kept) for a seeded corpus:
``test_wire``'s generators, each serialized class built from its defaults,
``EVALUATED_CONFIGS``, and a sample protection config.  It pins
:func:`~repro.sim.cache.cache_key` and :func:`~repro.replay.trace.trace_key`
of every generated request, the field names of every serialized class, and
the three schema versions.

Every pin moves with exactly one version (``ROOTS``, :func:`governor`).
A pin that moves while its version stays fails with the version to bump;
after the bump, rewrite the pins with ``PYTHONPATH=src python -m
tests.sim.test_wire_pin``, which refuses while a moved pin lacks its bump.
"""

import dataclasses
import hashlib
import json
import sys
import typing
from pathlib import Path

import pytest

from repro.common.codec import Codec, _plan
from repro.common.config import (
    AttackModel,
    CacheConfig,
    CoreConfig,
    DramConfig,
    MachineConfig,
    ProtectionConfig,
    TlbConfig,
)
from repro.isa.assembler import assemble
from repro.replay.trace import TRACE_SCHEMA_VERSION, trace_key
from repro.sim.api import Instrumentation, RunFailure, RunMetrics, RunRequest
from repro.sim.cache import SCHEMA_VERSION, cache_key
from repro.sim.configs import EVALUATED_CONFIGS
from repro.sim.events import EVENT_SCHEMA_VERSION, RunEvent
from repro.workloads.workload import Workload
from tests.sim.test_wire import (
    CASES,
    make_rng,
    random_event,
    random_failure,
    random_metrics,
    random_request,
)

PIN_FILE = Path(__file__).with_name("wire_pin.json")
REWRITE = "PYTHONPATH=src python -m tests.sim.test_wire_pin"

#: Per label prefix: the generated class and its generator.
GENERATORS = {
    "request": (RunRequest, random_request),
    "metrics": (RunMetrics, random_metrics),
    "failure": (RunFailure, random_failure),
    "event": (RunEvent, random_event),
}


def corpus() -> dict[str, object]:
    """Every pinned object, by a stable label."""
    items: dict[str, object] = {}
    for kind, (_, generate) in GENERATORS.items():
        for seed in range(CASES):
            items[f"{kind}/{seed}"] = generate(make_rng(seed))
    program = assemble("li r1, 7\nhalt", {0x1000: 5, 0x1008: 2.5}, name="pin")
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
            "default/RunEvent": RunEvent("queued", 0, "pin", "Unsafe", "spectre"),
            "sample/ProtectionConfig": EVALUATED_CONFIGS[6].protection_config(
                AttackModel.FUTURISTIC
            ),
        }
    )
    for config in EVALUATED_CONFIGS:
        items[f"config/{config.name}"] = config
    return items


#: The version every serialized class moves with, by the classes it is
#: reached from; a class reached from two versions takes the first.
ROOTS = {
    "SCHEMA_VERSION": (RunRequest, RunMetrics, RunFailure),
    "EVENT_SCHEMA_VERSION": (RunEvent,),
}
VERSIONS = {
    "SCHEMA_VERSION": SCHEMA_VERSION,
    "EVENT_SCHEMA_VERSION": EVENT_SCHEMA_VERSION,
    "TRACE_SCHEMA_VERSION": TRACE_SCHEMA_VERSION,
}
#: The class behind each label prefix that does not name it.
KIND_CLASS = {kind: cls.__name__ for kind, (cls, _) in GENERATORS.items()}
KIND_CLASS["config"] = "EvaluatedConfig"
KEY_VERSION = {"cache_key": "SCHEMA_VERSION", "trace_key": "TRACE_SCHEMA_VERSION"}


def serialized(cls: type) -> tuple[list[str], list[type]]:
    """The field names ``cls`` serializes, and the dataclasses they hold:
    from the codec's plan, or for ``Program`` and ``Instruction`` (which
    keep their own pair) from the dataclass fields."""
    if issubclass(cls, Codec):
        names = [name for name, _, _ in _plan(cls)]
        held = [getattr(decode, "__self__", None) for _, decode, _ in _plan(cls)]
    else:
        names = [f.name for f in dataclasses.fields(cls)]
        hints = typing.get_type_hints(cls)
        held = [arg for name in names for arg in typing.get_args(hints[name])]
    return names, [c for c in held if dataclasses.is_dataclass(c)]


def governed() -> dict[str, tuple[type, str]]:
    """Every serialized class by name, with the version it moves with."""
    classes: dict[str, tuple[type, str]] = {}
    for version, roots in ROOTS.items():
        todo = list(roots)
        while todo:
            cls = todo.pop()
            if cls.__name__ not in classes:
                classes[cls.__name__] = (cls, version)
                todo += serialized(cls)[1]
    return classes


GOVERNED = governed()


def governor(label: str) -> str | None:
    """The one version whose bump lets the pin ``label`` move."""
    kind, _, rest = label.partition("/")
    if kind == "version":
        return rest
    if kind in KEY_VERSION:
        return KEY_VERSION[kind]
    return GOVERNED.get(KIND_CLASS.get(kind, rest), (None, None))[1]


def current_pins() -> dict[str, object]:
    pins: dict[str, object] = {f"version/{name}": value for name, value in VERSIONS.items()}
    for name, (cls, _) in GOVERNED.items():
        pins[f"fields/{name}"] = serialized(cls)[0]
    for label, obj in corpus().items():
        blob = json.dumps(obj.to_dict())
        pins[label] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        if isinstance(obj, RunRequest):
            pins[f"cache_key/{label}"] = cache_key(obj)
            pins[f"trace_key/{label}"] = trace_key(obj)
    return pins


def drift(pinned: dict, current: dict) -> tuple[list[str], list[str]]:
    """``(unbumped, stale)``: the pins that moved without their version's
    bump, and the versions that moved without the pins being rewritten.
    A moved field-set pin is reported per changed field, ahead of the rest."""
    was = {name: pinned.get(f"version/{name}") for name in VERSIONS}
    now = {name: current.get(f"version/{name}") for name in VERSIONS}
    bumped = {name for name in VERSIONS if was[name] != now[name]}
    stale = [
        f"{name} is {now[name]} but the pins record {was[name]}: rewrite them with `{REWRITE}`"
        for name in sorted(bumped)
    ]
    unbumped = []
    labels = pinned.keys() | current.keys()
    for label in sorted(labels, key=lambda label: (not label.startswith("fields/"), label)):
        before, after = pinned.get(label), current.get(label)
        version = governor(label) or "the version of its class, after adding it to ROOTS"
        if before == after or version in bumped:
            continue
        moved = [label]
        if label.startswith("fields/") and before is not None and after is not None:
            changed = sorted(set(before) ^ set(after)) or ["<order>"]
            moved = [f"{label.removeprefix('fields/')}.{field}" for field in changed]
        unbumped += [f"{what} changed: bump {version}" for what in moved]
    return unbumped, stale


def rewrite(path: Path = PIN_FILE, current: dict | None = None) -> int:
    """Rewrite the pins at ``path``; refuse (exit status 1) while a pin
    moved without its version's bump."""
    current = current_pins() if current is None else current
    unbumped, _ = drift(json.loads(path.read_text()), current)
    if unbumped:
        print(f"refusing to rewrite {path}:", *unbumped, sep="\n  ", file=sys.stderr)
        return 1
    path.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
    return 0


@pytest.fixture(scope="module")
def pins():
    return current_pins()


def test_corpus_matches_pinned_labels(pins):
    assert sorted(pins) == sorted(json.loads(PIN_FILE.read_text()))


def test_wire_bytes_and_cache_keys_are_pinned(pins):
    unbumped, stale = drift(json.loads(PIN_FILE.read_text()), pins)
    assert not unbumped + stale, "\n".join(unbumped + stale)


def test_committed_pins_are_what_rewrite_writes(pins, tmp_path):
    """The committed file is the rewrite's own output for this tree, byte
    for byte: no pin was edited by hand and none is left over."""
    pin_file = tmp_path / "wire_pin.json"
    pin_file.write_text(PIN_FILE.read_text())
    assert rewrite(pin_file, pins) == 0
    assert pin_file.read_text() == PIN_FILE.read_text()


def test_reachable_codec_classes_are_governed_by_schema_version(pins):
    """The walk is closed: every class a guarded class holds moves with the
    same version, so everything a cache key or a cached result reaches
    moves with ``SCHEMA_VERSION``; and every pin has a version."""
    for cls, version in GOVERNED.values():
        for held in serialized(cls)[1]:
            assert GOVERNED[held.__name__] == (held, version), (cls, held)
    cached = {name for name, (_, version) in GOVERNED.items() if version == "SCHEMA_VERSION"}
    assert {"CoreConfig", "EvaluatedConfig", "Instruction", "Program", "Workload"} <= cached
    assert all(governor(label) in VERSIONS for label in pins)


#: A synthetic pin set: one field-set pin per version, one pin per key.
BASE = {f"version/{name}": 1 for name in VERSIONS} | {
    "fields/CoreConfig": ["fetch_width"],
    "fields/RunFailure": ["kind"],
    "fields/RunEvent": ["kind"],
    "request/0": "r0",
    "cache_key/request/0": "c0",
    "trace_key/request/0": "t0",
}


def test_field_added_without_version_bump_is_flagged():
    for cls, version in (
        ("CoreConfig", "SCHEMA_VERSION"),
        ("RunFailure", "SCHEMA_VERSION"),
        ("RunEvent", "EVENT_SCHEMA_VERSION"),
    ):
        grown = {**BASE, f"fields/{cls}": [*BASE[f"fields/{cls}"], "seed"], "request/0": "r1"}
        unbumped, stale = drift(BASE, grown)
        assert (unbumped[0], stale) == (f"{cls}.seed changed: bump {version}", [])


def test_missing_pin_is_flagged():
    unpinned = {**BASE, "fields/TlbConfig": ["entries"]}
    assert drift(BASE, unpinned) == (["fields/TlbConfig changed: bump SCHEMA_VERSION"], [])


@pytest.mark.parametrize("key", ["cache_key", "trace_key"])
def test_key_material_change_without_bump_is_flagged(key):
    changed = {**BASE, f"{key}/request/0": "k1"}
    assert drift(BASE, changed) == ([f"{key}/request/0 changed: bump {KEY_VERSION[key]}"], [])


@pytest.mark.parametrize("key", ["cache_key", "trace_key"])
def test_version_bump_asks_for_pin_refresh(key):
    version = KEY_VERSION[key]
    bumped = {**BASE, f"version/{version}": 2, f"{key}/request/0": "k1", "request/0": "r1"}
    unbumped, stale = drift(BASE, bumped)
    assert stale == [f"{version} is 2 but the pins record 1: rewrite them with `{REWRITE}`"]
    # A bump excuses only the pins its own version governs.
    assert unbumped == ([] if key == "cache_key" else ["request/0 changed: bump SCHEMA_VERSION"])


@pytest.mark.parametrize("key", ["cache_key", "trace_key"])
def test_refresh_after_bump_is_clean(key, tmp_path):
    pin_file = tmp_path / "wire_pin.json"
    pin_file.write_text(json.dumps(BASE))
    bumped = {**BASE, f"version/{KEY_VERSION[key]}": 2, f"{key}/request/0": "k1"}
    if key == "cache_key":
        bumped["fields/CoreConfig"] = ["fetch_width", "seed"]
    assert rewrite(pin_file, bumped) == 0
    assert drift(json.loads(pin_file.read_text()), bumped) == ([], [])


def test_rewrite_refuses_unbumped_drift(tmp_path, capsys):
    pin_file = tmp_path / "wire_pin.json"
    pin_file.write_text(json.dumps(BASE))
    grown = {**BASE, "fields/RunFailure": ["kind", "seed"]}
    assert rewrite(pin_file, grown) == 1
    assert json.loads(pin_file.read_text()) == BASE
    assert "RunFailure.seed changed: bump SCHEMA_VERSION" in capsys.readouterr().err


if __name__ == "__main__":
    raise SystemExit(rewrite())
