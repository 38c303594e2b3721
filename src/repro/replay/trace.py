"""The architectural trace: format, content address, and golden cursor.

An :class:`ArchTrace` is the committed instruction stream of one program —
per instruction: pc, opcode, next pc, branch outcome, load/store address,
and the result value written to the destination register.  The stream is a
pure function of (program instructions, initial memory, instruction
budget): protection schemes, attack models, machine/memory parameters and
the cycle budget change *when* instructions commit, never *what* commits
(the golden model enforces exactly this).  :func:`trace_key` therefore
hashes only that architectural material, so one recording serves every
timing configuration of the same workload.

On-disk format (``to_bytes``/``from_bytes``), little-endian::

    magic "RPRT" | u16 version | u8 flags | u8 reserved | u32 count
    | u32 opcode-table length | u64 payload length | u32 crc32
    | opcode table (comma-separated names)
    | payload: opcodes[count] recflags[count] pcs[4*count]
               next_pcs[4*count] mem_addrs[8*count] results[8*count]

The length fields and the CRC-32 (over the header with the checksum field
excluded, plus table and payload) make torn or truncated files — and any
single flipped byte, header included — *detectable*: any violation raises
:class:`TraceFormatError`, which readers treat as a miss — replay then
falls back to live execution rather than verifying against garbage.
Opcodes are stored by name through a per-trace table, so the format
survives opcode-set evolution (an unknown name simply can never match).

``TRACE_SCHEMA_VERSION`` follows the result-cache/wire-schema rule: any
change to the record layout or the :func:`trace_key` material must bump it
(old traces become unreadable misses instead of wrong answers), and the
wire-pin test fails on a :func:`trace_key` change without the bump.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import zlib
from array import array
from collections import namedtuple
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.isa.instructions import Opcode
from repro.isa.iss import CommittedOp

if TYPE_CHECKING:
    from repro.sim.api import RunRequest

#: Bump whenever the record layout, header, or :func:`trace_key` material
#: changes — the wire-pin test pins every generated request's ``trace_key``.
#: v2: the key material is the program ``digest``, not canonicalized lists.
TRACE_SCHEMA_VERSION = 2

_MAGIC = b"RPRT"
_HEADER = struct.Struct("<4sHBBIIQI")

#: Header flag: the recording ran to a committed HALT (a replayed run can
#: never outrun the trace).  Unset = the instruction budget cut it short.
_HDR_HALTED = 0x01

#: Per-record flags.
_REC_TAKEN = 0x01
_REC_HAS_MEM = 0x02
_REC_HAS_RESULT = 0x04
_REC_RESULT_FLOAT = 0x08

_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")

#: Bytes per record across the six parallel payload sections.
_RECORD_BYTES = 1 + 1 + 4 + 4 + 8 + 8


class TraceFormatError(ValueError):
    """A trace blob that cannot be decoded: bad magic, a newer schema,
    a torn/truncated payload, or a checksum mismatch."""


class TraceExhausted(RuntimeError):
    """A replayed run committed past the end of its trace (the recording
    was cut short by its budget) — the caller must fall back to live
    execution."""


#: What :meth:`TraceCursor.step` returns — the subset of
#: :class:`~repro.isa.iss.CommittedOp` the core's golden check reads.
GoldenRecord = namedtuple("GoldenRecord", ("seq", "pc", "opcode", "result"))


def _le(arr: array) -> array:
    """The array with little-endian byte order (no-op on LE hosts)."""
    if sys.byteorder != "little":  # pragma: no cover - LE-only CI hosts
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr


def _float_bits(value: float) -> int:
    return _I64.unpack(_F64.pack(value))[0]


def _bits_float(bits: int) -> float:
    return _F64.unpack(_I64.pack(bits))[0]


class ArchTrace:
    """A committed-instruction stream in six parallel arrays.

    Kept columnar (``bytes`` + ``array``) rather than as a list of
    dataclasses so loading a 200k-instruction trace is a handful of buffer
    copies, not 200k allocations — the whole point of replay is that
    fetching the reference is much cheaper than re-interpreting it.
    """

    __slots__ = (
        "opcode_names",
        "opcodes",
        "recflags",
        "pcs",
        "next_pcs",
        "mem_addrs",
        "results",
        "halted",
    )

    def __init__(
        self,
        *,
        opcode_names: Sequence[str],
        opcodes: bytes,
        recflags: bytes,
        pcs: array,
        next_pcs: array,
        mem_addrs: array,
        results: array,
        halted: bool,
    ) -> None:
        self.opcode_names = tuple(opcode_names)
        self.opcodes = opcodes
        self.recflags = recflags
        self.pcs = pcs
        self.next_pcs = next_pcs
        self.mem_addrs = mem_addrs
        self.results = results
        self.halted = halted

    def __len__(self) -> int:
        return len(self.opcodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArchTrace):
            return NotImplemented
        return (
            self.opcode_names == other.opcode_names
            and self.opcodes == other.opcodes
            and self.recflags == other.recflags
            and self.pcs == other.pcs
            and self.next_pcs == other.next_pcs
            and self.mem_addrs == other.mem_addrs
            and self.results == other.results
            and self.halted == other.halted
        )

    # ----------------------------------------------------------- building

    @classmethod
    def from_records(cls, records: Iterable[CommittedOp], *, halted: bool) -> "ArchTrace":
        """Build a trace from an ISS commit stream (see ``Interpreter.run``)."""
        opcode_names = tuple(op.name for op in Opcode)
        opcode_index = {op: i for i, op in enumerate(Opcode)}
        opcodes = bytearray()
        recflags = bytearray()
        pcs = array("I")
        next_pcs = array("I")
        mem_addrs = array("q")
        results = array("q")
        for record in records:
            flags = 0
            mem_addr = 0
            raw_result = 0
            if record.taken:
                flags |= _REC_TAKEN
            if record.mem_addr is not None:
                flags |= _REC_HAS_MEM
                mem_addr = record.mem_addr
            if record.result is not None:
                flags |= _REC_HAS_RESULT
                if isinstance(record.result, float):
                    flags |= _REC_RESULT_FLOAT
                    raw_result = _float_bits(record.result)
                else:
                    raw_result = record.result
            opcodes.append(opcode_index[record.opcode])
            recflags.append(flags)
            pcs.append(record.pc)
            next_pcs.append(record.next_pc)
            mem_addrs.append(mem_addr)
            results.append(raw_result)
        return cls(
            opcode_names=opcode_names,
            opcodes=bytes(opcodes),
            recflags=bytes(recflags),
            pcs=pcs,
            next_pcs=next_pcs,
            mem_addrs=mem_addrs,
            results=results,
            halted=halted,
        )

    def record(self, index: int) -> CommittedOp:
        """Materialize record ``index`` as a :class:`CommittedOp` (tests,
        tools, differential checkers — not the replay hot path)."""
        flags = self.recflags[index]
        result: int | float | None = None
        if flags & _REC_HAS_RESULT:
            raw = self.results[index]
            result = _bits_float(raw) if flags & _REC_RESULT_FLOAT else raw
        name = self.opcode_names[self.opcodes[index]]
        return CommittedOp(
            seq=index,
            pc=self.pcs[index],
            opcode=Opcode[name],
            next_pc=self.next_pcs[index],
            taken=bool(flags & _REC_TAKEN),
            mem_addr=self.mem_addrs[index] if flags & _REC_HAS_MEM else None,
            result=result,
        )

    def records(self) -> list[CommittedOp]:
        return [self.record(i) for i in range(len(self))]

    # -------------------------------------------------------- serialization

    def to_bytes(self) -> bytes:
        table = ",".join(self.opcode_names).encode("utf-8")
        payload = b"".join(
            (
                self.opcodes,
                self.recflags,
                _le(self.pcs).tobytes(),
                _le(self.next_pcs).tobytes(),
                _le(self.mem_addrs).tobytes(),
                _le(self.results).tobytes(),
            )
        )
        # The CRC covers everything but itself — header included, so even a
        # flipped flags byte (e.g. the halted bit) cannot decode silently.
        bare = _HEADER.pack(
            _MAGIC,
            TRACE_SCHEMA_VERSION,
            _HDR_HALTED if self.halted else 0,
            0,
            len(self),
            len(table),
            len(payload),
            0,
        )[:-4]
        checksum = zlib.crc32(bare)
        checksum = zlib.crc32(table, checksum)
        checksum = zlib.crc32(payload, checksum) & 0xFFFFFFFF
        return bare + struct.pack("<I", checksum) + table + payload

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ArchTrace":
        if len(blob) < _HEADER.size:
            raise TraceFormatError(
                f"trace truncated: {len(blob)} bytes is shorter than the "
                f"{_HEADER.size}-byte header"
            )
        magic, version, flags, _, count, table_len, payload_len, checksum = (
            _HEADER.unpack_from(blob)
        )
        if magic != _MAGIC:
            raise TraceFormatError(f"bad trace magic {magic!r}")
        if version > TRACE_SCHEMA_VERSION:
            raise TraceFormatError(
                f"trace schema v{version} is newer than this build's "
                f"v{TRACE_SCHEMA_VERSION}"
            )
        if payload_len != count * _RECORD_BYTES:
            raise TraceFormatError(
                f"length header inconsistent: {count} records need "
                f"{count * _RECORD_BYTES} payload bytes, header says "
                f"{payload_len}"
            )
        header_size = _HEADER.size
        expected = header_size + table_len + payload_len
        if len(blob) != expected:
            raise TraceFormatError(f"trace torn: header promises {expected} bytes, got {len(blob)}")
        body = blob[header_size:]
        actual = zlib.crc32(blob[: header_size - 4])
        actual = zlib.crc32(body, actual) & 0xFFFFFFFF
        if actual != checksum:
            raise TraceFormatError("trace checksum mismatch (corrupt file)")
        table = body[:table_len].decode("utf-8")
        payload = body[table_len:]
        offset = 0

        def take(nbytes: int) -> bytes:
            nonlocal offset
            end = offset + nbytes
            chunk = payload[offset:end]
            offset = end
            return chunk

        opcodes = take(count)
        recflags = take(count)
        pcs = array("I")
        pcs.frombytes(take(4 * count))
        next_pcs = array("I")
        next_pcs.frombytes(take(4 * count))
        mem_addrs = array("q")
        mem_addrs.frombytes(take(8 * count))
        results = array("q")
        results.frombytes(take(8 * count))
        return cls(
            opcode_names=tuple(table.split(",")) if table else (),
            opcodes=opcodes,
            recflags=recflags,
            pcs=_le(pcs),
            next_pcs=_le(next_pcs),
            mem_addrs=_le(mem_addrs),
            results=_le(results),
            halted=bool(flags & _HDR_HALTED),
        )


def trace_key(request: "RunRequest") -> str:
    """Content address of the architectural trace ``request`` commits.

    Deliberately a *strict subset* of the result-cache key: the program's
    content :attr:`~repro.isa.program.Program.digest` (instructions and
    initial memory) plus the instruction budget.  Excluded — because they
    cannot change what commits, only when — are the protection config,
    attack model, machine/memory parameters, warm set, cycle budget, and
    ``check_golden``.  That exclusion is the whole record-once/replay-many
    win: every scheme × machine cell of a sweep over one workload shares a
    single trace.
    """
    material = {
        "schema": TRACE_SCHEMA_VERSION,
        "program": request.workload.program.digest,
        "max_instructions": request.max_instructions,
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TraceCursor:
    """An :class:`ArchTrace` wearing the core's golden-reference protocol.

    ``step()`` yields successive :class:`GoldenRecord` entries; the core
    compares each against what it commits exactly as it would the ISS —
    same checks, same :class:`~repro.pipeline.core.GoldenModelMismatch` on
    divergence — so a replayed run is verified as strongly as a live
    golden-checked one, at a fraction of the per-commit cost.

    Raises :class:`TraceExhausted` if the run commits past the recording
    (only possible when the recording was budget-cut, i.e. not ``halted``).
    """

    __slots__ = (
        "trace",
        "_index",
        "_count",
        "_decode_opcodes",
        "_opcodes",
        "_recflags",
        "_pcs",
        "_results",
    )

    def __init__(self, trace: ArchTrace) -> None:
        self.trace = trace
        self._index = 0
        members = Opcode.__members__
        self._decode_opcodes = tuple(members.get(name) for name in trace.opcode_names)
        # step() runs once per committed instruction — bind the columns
        # directly so the hot path skips the trace-attribute indirection.
        self._count = len(trace.opcodes)
        self._opcodes = trace.opcodes
        self._recflags = trace.recflags
        self._pcs = trace.pcs
        self._results = trace.results

    @property
    def position(self) -> int:
        """How many commits have been verified so far."""
        return self._index

    def step(self) -> GoldenRecord:
        index = self._index
        if index >= self._count:
            raise TraceExhausted(
                f"run committed past the {self._count}-record trace "
                f"(recorded halted={self.trace.halted}); re-run live"
            )
        self._index = index + 1
        flags = self._recflags[index]
        result: int | float | None = None
        if flags & _REC_HAS_RESULT:
            raw = self._results[index]
            result = _bits_float(raw) if flags & _REC_RESULT_FLOAT else raw
        return GoldenRecord(
            index,
            self._pcs[index],
            self._decode_opcodes[self._opcodes[index]],
            result,
        )
