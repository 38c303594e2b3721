"""Pinned suite programs: a generator's output for a seed is a contract.

For every member of ``suite()`` and ``suite(0.25)``, ``program_pins.json``
holds the program's digest, a hash of its warm-up address list and a hash
of its memory image's key order (the digest sorts the image, so insertion
order needs its own pin: the warm-up and the image's iteration follow it).
A faster generator must reproduce every draw; one that changes a program on
purpose rewrites the table with ``PYTHONPATH=src python -m
tests.workloads.test_program_pins`` and says why.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib

import pytest

from repro.workloads import suite

PIN_PATH = pathlib.Path(__file__).with_name("program_pins.json")
SCALES = (1.0, 0.25)


def _hash(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


def program_pin(workload) -> dict[str, str]:
    return {
        "digest": workload.program.digest,
        "warm_addresses": _hash(workload.warm_addresses),
        "memory_order": _hash(workload.program.initial_memory),
    }


@functools.lru_cache(maxsize=None)
def _members(scale: float) -> dict[str, object]:
    return {workload.name: workload for workload in suite(scale)}


def current_pins() -> dict[str, dict[str, str]]:
    return {
        f"{scale}/{name}": program_pin(workload)
        for scale in SCALES
        for name, workload in _members(scale).items()
    }


PINS: dict[str, dict[str, str]] = json.loads(PIN_PATH.read_text())


def test_every_suite_member_is_pinned():
    labels = [f"{scale}/{name}" for scale in SCALES for name in _members(scale)]
    assert labels == list(PINS)


@pytest.mark.parametrize("label", list(PINS))
def test_program_matches_its_pin(label):
    scale, name = label.split("/")
    assert program_pin(_members(float(scale))[name]) == PINS[label]


if __name__ == "__main__":
    PIN_PATH.write_text(json.dumps(current_pins(), indent=2) + "\n")
