"""Workload descriptor: a program plus its measurement context."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.codec import Codec
from repro.isa.program import Program


@dataclass(frozen=True)
class Workload(Codec):
    """A named benchmark kernel.

    ``warm_addresses`` are pre-loaded into the memory hierarchy before
    measurement (our stand-in for SimPoint checkpoint warmup); ``max_cycles``
    is a per-workload safety bound for the slowest protected configuration.
    """

    name: str
    program: Program
    warm_addresses: tuple[int, ...] = ()
    description: str = ""
    max_cycles: int = 2_000_000

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("workload needs a name")

    @property
    def static_instructions(self) -> int:
        return len(self.program)
