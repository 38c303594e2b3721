"""Program representation: instructions + initial data memory."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from repro.isa.instructions import Instruction, Opcode

#: Instruction fields that are part of a program's content (labels are not).
_CODE_FIELDS = tuple(f.name for f in fields(Instruction) if f.compare and f.name != "opcode")


@dataclass(frozen=True)
class Program:
    """A static program, immutable so that :attr:`digest` is its identity.

    ``instructions`` is the code segment (a tuple; the PC is an index into
    it).  ``initial_memory`` is a read-only view of a copy, taken at
    construction, of the map from addresses to 64-bit integer words
    (floating point values are stored as Python floats; the simulator's
    memory is typed by whatever was stored).  ``name`` is used in reports.
    """

    instructions: tuple[Instruction, ...]
    initial_memory: Mapping[int, int | float] = field(default_factory=dict)
    name: str = "anonymous"

    def __post_init__(self) -> None:
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "initial_memory", MappingProxyType(dict(self.initial_memory)))
        if not self.instructions:
            raise ValueError("a program needs at least one instruction")
        limit = len(self.instructions)
        for pc, inst in enumerate(self.instructions):
            if inst.target is not None and not 0 <= inst.target < limit:
                raise ValueError(
                    f"instruction {pc} ({inst}) branches to {inst.target}, "
                    f"outside program of length {limit}"
                )
        if self.instructions[-1].opcode is not Opcode.HALT and not any(
            inst.opcode is Opcode.HALT for inst in self.instructions
        ):
            raise ValueError(f"program {self.name!r} has no HALT instruction")

    @cached_property
    def digest(self) -> str:
        """SHA-256 of the content: each instruction's compare-fields (not its
        label) and the memory as address-sorted ``(address, value)`` pairs;
        ``repr`` keeps ``1``/``1.0``, ``0.0``/``-0.0`` and big ints apart.
        Lazy, because an image can hold hundreds of thousands of words."""
        code = [
            (inst.opcode.name, *[getattr(inst, name) for name in _CODE_FIELDS])
            for inst in self.instructions
        ]
        material = repr((code, sorted(self.initial_memory.items())))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    @cached_property
    def sources(self) -> tuple[tuple[int, ...], ...]:
        """Per PC, the registers the instruction reads
        (:meth:`Instruction.sources`), decoded once for the pipeline's
        rename stage.  Derived from the content like :attr:`digest`, so it
        neither enters the digest nor travels."""
        return tuple(inst.sources() for inst in self.instructions)

    def __getstate__(self) -> dict:
        # A mappingproxy does not pickle, so the words travel as a plain
        # dict.  The digest does not travel: the receiver derives it from
        # the content it actually got.
        return {
            "instructions": self.instructions,
            "initial_memory": self.initial_memory.copy(),
            "name": self.name,
        }

    def __setstate__(self, state: dict) -> None:
        state["initial_memory"] = MappingProxyType(state["initial_memory"])
        self.__dict__.update(state)

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, pc: int) -> Instruction:
        return self.instructions[pc]

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (inverse of :meth:`from_dict`).

        ``initial_memory`` becomes ``[[address, value], …]`` pairs: JSON
        object keys are strings, and the addresses must survive as ints for
        the cache key to be stable across the wire.
        """
        return {
            "name": self.name,
            "instructions": [inst.to_dict() for inst in self.instructions],
            "initial_memory": [list(word) for word in self.initial_memory.items()],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Program":
        return cls(
            instructions=[Instruction.from_dict(inst) for inst in payload["instructions"]],
            initial_memory={int(a): value for a, value in payload.get("initial_memory", [])},
            name=payload.get("name", "anonymous"),
        )

