"""The dataclass codec: its encoding rules and its decoding rules, the
latter checked on every class that uses it."""

import dataclasses
import enum
from pathlib import Path

import pytest

from repro.common.codec import Codec, encode
from repro.common.config import (
    AttackModel,
    CacheConfig,
    CoreConfig,
    DramConfig,
    MachineConfig,
    ProtectionConfig,
    ProtectionKind,
    TlbConfig,
)
from repro.isa.assembler import assemble
from repro.sim.api import Instrumentation, RunFailure, RunMetrics, RunRequest
from repro.sim.configs import EVALUATED_CONFIGS, EvaluatedConfig
from repro.sim.events import RunEvent
from repro.workloads.workload import Workload

PROGRAM = assemble("li r1, 7\nhalt", {0x1000: 5}, name="codec")
WORKLOAD = Workload("codec", PROGRAM)

#: Every codec class with the values of its required fields.
REQUIRED = {
    CacheConfig: dict(name="L1D", size=32 * 1024, line_size=64, assoc=8, latency=2),
    TlbConfig: {},
    DramConfig: {},
    CoreConfig: {},
    ProtectionConfig: {},
    MachineConfig: {},
    EvaluatedConfig: dict(name="STT{ld}", kind=ProtectionKind.STT),
    Workload: dict(name="codec", program=PROGRAM),
    Instrumentation: {},
    RunMetrics: dict(
        workload="w",
        config="Unsafe",
        attack_model=AttackModel.FUTURISTIC,
        cycles=9,
        instructions=3,
    ),
    RunRequest: dict(workload=WORKLOAD, config=EVALUATED_CONFIGS[0]),
    RunFailure: dict(
        workload="w",
        config="Unsafe",
        attack_model=AttackModel.SPECTRE,
        error_type="RuntimeError",
        message="boom",
    ),
    RunEvent: dict(kind="queued", index=0, workload="w", config="Unsafe", model="spectre"),
}

CLASSES = sorted(REQUIRED, key=lambda cls: cls.__name__)
WITH_REQUIRED_FIELDS = [cls for cls in CLASSES if REQUIRED[cls]]


def required_payload(cls):
    """The wire form of ``cls(**REQUIRED[cls])`` cut down to its required keys."""
    return {key: encode(value) for key, value in REQUIRED[cls].items()}


def test_every_codec_class_is_covered():
    assert set(Codec.__subclasses__()) - {Sample} == set(REQUIRED)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestDecodingRules:
    def test_required_fields_only_takes_defaults(self, cls):
        assert cls.from_dict(required_payload(cls)) == cls(**REQUIRED[cls])

    def test_unknown_key_is_ignored(self, cls):
        payload = required_payload(cls)
        payload["field_from_a_newer_release"] = [1, 2]
        assert cls.from_dict(payload) == cls(**REQUIRED[cls])

    def test_defaults_round_trip(self, cls):
        value = cls(**REQUIRED[cls])
        assert cls.from_dict(value.to_dict()) == value


@pytest.mark.parametrize("cls", WITH_REQUIRED_FIELDS, ids=lambda cls: cls.__name__)
def test_missing_required_key_raises_key_error(cls):
    for missing in REQUIRED[cls]:
        payload = required_payload(cls)
        del payload[missing]
        with pytest.raises(KeyError, match=missing):
            cls.from_dict(payload)


class Colour(enum.Enum):
    RED = "red"


@dataclasses.dataclass(frozen=True)
class Sample(Codec):
    colour: Colour
    where: Path
    kinds: frozenset[str] = frozenset({"b", "a"})
    dims: tuple[int, ...] = (4, 2)
    nested: CacheConfig | None = None
    stats: dict[str, float] = dataclasses.field(default_factory=dict)


class TestEncodingRules:
    def test_declaration_order_and_forms(self):
        nested = CacheConfig(**REQUIRED[CacheConfig], banks=2)
        sample = Sample(Colour.RED, Path("out/x.json"), nested=nested)
        assert list(sample.to_dict().items()) == [
            ("colour", "red"),
            ("where", "out/x.json"),
            ("kinds", ["a", "b"]),
            ("dims", [4, 2]),
            (
                "nested",
                {**REQUIRED[CacheConfig], "banks": 2, "mshrs": 16, "ports": 2, "slices": 1},
            ),
            ("stats", {}),
        ]

    def test_decoding_rebuilds_the_containers(self):
        nested = CacheConfig(**REQUIRED[CacheConfig])
        sample = Sample(Colour.RED, Path("p"), nested=nested, stats={"x": 1.5})
        decoded = Sample.from_dict(sample.to_dict())
        assert decoded.kinds == frozenset({"a", "b"}) and decoded.dims == (4, 2)
        assert decoded.colour is Colour.RED and decoded.stats == {"x": 1.5}
        assert decoded.nested == nested

    def test_own_form_is_used(self):
        assert Workload.from_dict(WORKLOAD.to_dict()).program.digest == PROGRAM.digest
        assert WORKLOAD.to_dict()["program"] == PROGRAM.to_dict()

    def test_unencodable_value_is_refused(self):
        with pytest.raises(TypeError, match="cannot encode object"):
            encode(object())
