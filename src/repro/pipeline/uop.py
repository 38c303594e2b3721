"""Dynamic instructions (uops) flowing through the pipeline.

A :class:`DynInst` is one fetched instance of a static instruction.  It
carries rename state, execution state, branch-prediction state and taint
bookkeeping; a load or FP transmitter also carries a
:class:`TransmitterState` with the state machine used by STT/SDO (events
A/B/C/D of Section V-C2).  ``seq`` is a globally unique, monotonically
increasing fetch sequence number — program order on the current
speculative path — and is the ordering every age comparison in the machine
uses.
"""

from __future__ import annotations

import enum

from repro.common.config import MemLevel
from repro.frontend.branch_predictor import BranchPrediction
from repro.isa.instructions import Instruction
from repro.memory.hierarchy import OblLoadResponse


class UopState(enum.Enum):
    FETCHED = "fetched"  # in the fetch/decode buffer
    WAITING = "waiting"  # renamed, in the IQ, waiting for operands/policy
    ISSUED = "issued"  # executing (in an FU or the memory system)
    COMPLETED = "completed"  # result produced and forwarded
    RETIRED = "retired"

    def __init__(self, value: str) -> None:
        # A plain member attribute: ``uop.state.done`` is the cheap form of
        # ``uop.completed`` the pipeline tests every cycle.
        self.done = value in ("completed", "retired")


class OblState(enum.Enum):
    """Obl-Ld state machine (Section V-C2).

    Events: A = issued as Obl-Ld, B = all wait-buffer responses arrived,
    C = load became safe (address untainted), D = validation completed.
    """

    NONE = "none"  # not an oblivious load
    INFLIGHT = "inflight"  # A happened, waiting for responses
    DONE = "done"  # B happened


_FETCHED = UopState.FETCHED
_OBL_NONE = OblState.NONE


class TransmitterState:
    """The protection state of a load or an FP transmitter.

    Only those uops can be delayed, issued obliviously or predicted, so
    only they allocate one (``DynInst.tx``; ``None`` for every other uop).
    It holds the load-queue fields of Section VI-A (the Obl-Ld state
    machine, validation/exposure, location prediction), the SpecBox
    buffered flag, and the Obl-FP fast-path prediction.  ``safe`` is
    event C for both kinds.
    """

    __slots__ = (
        "obl_state", "obl_response", "safe", "needs_validation",
        "use_exposure", "validation_done", "validation_complete_cycle",
        "pending_squash", "predicted_level", "actual_level",
        "invalidated_while_inflight",
        # SpecBox-style transparent speculation: this load's cache effects
        # live in the hierarchy's speculative buffer until commit/squash
        "spec_buffered",
        # FP SDO state
        "fp_predicted_fast", "fp_actually_slow",
    )

    def __init__(self) -> None:
        self.obl_state = _OBL_NONE
        self.obl_response: OblLoadResponse | None = None
        self.safe = False
        self.needs_validation = False
        self.use_exposure = False
        self.validation_done = False
        self.validation_complete_cycle = -1
        self.pending_squash = False
        self.predicted_level: MemLevel | None = None
        self.actual_level: MemLevel | None = None
        self.invalidated_while_inflight = False
        self.spec_buffered = False
        self.fp_predicted_fast = False
        self.fp_actually_slow = False


class DynInst:
    """One in-flight dynamic instruction."""

    __slots__ = (
        "seq", "pc", "inst", "state", "squashed",
        # static facts copied from the opcode at fetch
        "op_class", "is_load", "is_store", "is_branch", "is_fp_transmitter",
        # frontend: first cycle the uop may leave the decode queue
        "decode_ready",
        # rename
        "src_pregs", "dest_preg", "old_dest_preg",
        # issue select: IQ-insertion stamp, issue operands not yet ready
        "iq_stamp", "waiting_on",
        # execution
        "issue_cycle", "complete_cycle", "result", "delayed_cycles",
        # branch state
        "prediction", "predicted_next_pc",
        "actual_taken", "actual_next_pc", "resolved", "resolution_pending",
        # memory state
        "addr", "line", "value", "sq_forward_seq", "store_value",
        # protection state of loads and FP transmitters, else None
        "tx",
        # taint
        "taint_root", "src_taint_root",
    )

    def __init__(self, seq: int, pc: int, inst: Instruction, decode_ready: int = 0) -> None:
        self.seq = seq
        self.pc = pc
        self.inst = inst
        self.state = _FETCHED
        self.squashed = False

        opcode = inst.opcode
        self.op_class = opcode.op_class
        self.is_load = is_load = opcode.is_load
        self.is_store = opcode.is_store
        self.is_branch = opcode.is_branch
        self.is_fp_transmitter = is_fp = opcode.is_fp_transmitter
        self.tx = TransmitterState() if is_load or is_fp else None

        self.decode_ready = decode_ready

        self.src_pregs: tuple[int, ...] = ()
        self.dest_preg: int | None = None
        self.old_dest_preg: int | None = None

        self.iq_stamp = -1
        self.waiting_on = 0

        self.issue_cycle = -1
        self.complete_cycle = -1
        self.result: int | float | None = None
        self.delayed_cycles = 0  # cycles spent ready-but-delayed by policy

        self.prediction: BranchPrediction | None = None
        self.predicted_next_pc = pc + 1
        self.actual_taken = False
        self.actual_next_pc = pc + 1
        self.resolved = False
        self.resolution_pending = False

        self.addr: int | None = None
        self.line: int | None = None
        self.value: int | float | None = None
        self.sq_forward_seq: int | None = None
        self.store_value: int | float | None = None

        self.taint_root: int | None = None
        self.src_taint_root: int | None = None

    @property
    def completed(self) -> bool:
        return self.state.done

    def __repr__(self) -> str:
        return (
            f"DynInst(seq={self.seq}, pc={self.pc}, {self.inst.opcode.mnemonic},"
            f" state={self.state.value})"
        )
