"""The execution-driven out-of-order core.

Stage order within a cycle: writeback events -> protection ``begin_cycle``
(untaint frontier; pending branch resolutions; Obl-Ld safe/C events) ->
commit -> issue -> dispatch/rename -> fetch.  Fetched wrong-path
instructions execute for real and are rolled back by a tail-first ROB walk.

The core is policy-free: every security decision is delegated to the
attached :class:`~repro.pipeline.protection.ProtectionScheme`.  What *is*
here is the Obl-Ld microarchitecture of Section VI-A — the load-queue state
machine over events A (issue), B (wait-buffer complete), C (safe) and
D (validation complete), including all three orderings of Section V-C2 and
the early-forwarding optimization — because those are pipeline structures,
not policy.

Committed state is checked against the functional golden model
(:class:`~repro.isa.iss.Interpreter`) instruction by instruction: any
divergence raises :class:`GoldenModelMismatch` immediately.

Observability: every cycle is attributed either to productive commit
(``core.commit_active_cycles``) or to exactly one stall reason keyed off
the ROB head (``core.stall.*`` — frontend starvation, operand waits,
execution/memory latency, STT delay, DO-variant wait, validation wait…),
so the stall counters sum exactly to the non-committing cycles.  Per-stage
occupancy integrals (``core.occ.*``) and structure peaks ride along.

Observation goes through one protocol, :class:`CoreObserver`: the cycle
tracer and the analysis probes subscribe with :meth:`Core.attach_observer`
and receive the pipeline's events.  With no observer attached (the
default) each event site costs one check of the empty ``core.observers``
tuple; with any attached, the run takes the naive one-step-per-cycle loop.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import deque
from dataclasses import dataclass
from operator import attrgetter

from repro.common.config import MachineConfig, MemLevel
from repro.common.stats import StatGroup
from repro.frontend.branch_predictor import TournamentPredictor
from repro.frontend.btb import BranchTargetBuffer
from repro.isa.instructions import Opcode, OpClass, is_subnormal
from repro.isa.iss import ArchState, Interpreter
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.lsq import LoadQueue, StoreQueue
from repro.pipeline.protection import (
    FP_DECISION_COUNTERS,
    LOAD_DECISION_COUNTERS,
    FpIssueAction,
    IssueDecision,
    LoadIssueAction,
    LIFECYCLE_HOOKS,
    ProtectionScheme,
    UnsafeProtection,
    defined_hook,
)
from repro.pipeline.registers import PhysRegFile, RenameMap
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.uop import DynInst, OblState, TransmitterState, UopState

# Enum members the pipeline tests per uop or per cycle, bound once.  On
# Python 3.11 a class-level read such as ``UopState.WAITING`` goes through
# ``EnumType.__getattr__`` (~150 ns against ~20 ns for a module global),
# and an enum-keyed dict lookup pays a Python-level ``Enum.__hash__``; the
# hot paths below therefore compare these globals by identity instead.
_WAITING = UopState.WAITING
_ISSUED = UopState.ISSUED
_COMPLETED = UopState.COMPLETED
_RETIRED = UopState.RETIRED
_FETCHED = UopState.FETCHED
_OBL_NONE = OblState.NONE
_OBL_INFLIGHT = OblState.INFLIGHT
_OBL_DONE = OblState.DONE
_INT_ALU = OpClass.INT_ALU
_INT_MUL = OpClass.INT_MUL
_BRANCH = OpClass.BRANCH
_FP = OpClass.FP
_SYSTEM = OpClass.SYSTEM
_HALT = Opcode.HALT
_LOAD_NORMAL = LoadIssueAction.NORMAL
_LOAD_OBLIVIOUS = LoadIssueAction.OBLIVIOUS
_LOAD_DELAY = LoadIssueAction.DELAY
_LOAD_BUFFERED = LoadIssueAction.BUFFERED
_FP_NORMAL = FpIssueAction.NORMAL
_FP_PREDICT_FAST = FpIssueAction.PREDICT_FAST
_FP_DELAY = FpIssueAction.DELAY
_L1 = MemLevel.L1

#: Fixed execution latencies (cycles) of the FP opcodes, by mnemonic.
_FP_FAST_LATENCY = {
    "fadd": 3,
    "fsub": 3,
    "fmul": 4,
    "fdiv": 12,
    "fsqrt": 15,
    "fli": 1,
}
#: Extra cycles of the microcoded slow path taken on subnormal operands
#: (the operand-dependent timing of [5] the paper's FP example builds on).
FP_SLOW_EXTRA = 40
_SQ_FORWARD_LATENCY = 1
#: Issue-select order: IQ insertion (see :meth:`Core._enter_iq`).
_IQ_ORDER = attrgetter("iq_stamp")

#: Every stall reason :meth:`Core._stall_reason` can attribute a
#: zero-commit cycle to — the full ``core.stall.*`` namespace.  Kept as a
#: literal tuple so the counter names are statically extractable (the
#: ``stat-key`` lint checker cross-checks this tuple against the literals
#: ``_stall_reason`` returns and against the golden-stats fixture), and so
#: ``_fold_cycle_accounting`` publishes only known reasons.
STALL_REASONS = (
    "frontend",
    "branch_hold",
    "exec",
    "stt_delay",
    "operands",
    "disambiguation",
    "issue_width",
    "do_variant_wait",
    "memory",
    "do_fail_wait",
    "do_safe_wait",
    "validation_wait",
    "commit_skew",
)


#: Structural-stall counters (``core.*``): a stalled cycle of fetch (full
#: buffer, or off the end of the program), dispatch (a full structure or no
#: free physical register) or commit (a validation in flight).  Counted in a
#: plain dict and folded into stats when a run ends.
STRUCTURAL_STALLS = (
    "fetch_buffer_full_cycles",
    "fetch_off_end_cycles",
    "rob_full_stalls",
    "lq_full_stalls",
    "sq_full_stalls",
    "iq_full_stalls",
    "no_preg_stalls",
    "validation_stall_cycles",
)


class GoldenModelMismatch(AssertionError):
    """The OoO core committed something the golden reference disagrees with."""


class GoldenReference:
    """Duck-typed protocol for the commit-time golden reference.

    Anything with an :class:`~repro.isa.iss.Interpreter`-shaped ``step()``
    — returning a record with ``seq``, ``pc``, ``opcode`` and ``result`` —
    can be injected into :class:`Core` via the ``golden`` argument.  The
    two in-tree implementations are the ISS itself (the default when
    ``check_golden`` is set: full functional re-execution) and
    ``repro.replay.TraceCursor`` (verification against a recorded
    architectural trace, no functional re-execution).
    """

    def step(self):  # pragma: no cover - protocol stub
        raise NotImplementedError


class CoreObserver:
    """No-op base of the core's observation protocol.

    Subclasses override the events they need; the core calls every attached
    observer's method at the matching pipeline point.  Observers read the
    uop but never change it, so attaching one never changes results.
    """

    def on_fetch(self, uop: DynInst, cycle: int) -> None:
        """``uop`` entered the decode queue."""

    def on_dispatch(self, uop: DynInst, cycle: int) -> None:
        """``uop`` was renamed into the ROB."""

    def on_load_decision(
        self, uop: DynInst, cycle: int, decision: IssueDecision
    ) -> None:
        """The protection scheme decided on a ready load (``DELAY`` too)."""

    def on_issue(self, uop: DynInst, cycle: int) -> None:
        """``uop`` issued (loads: after their issue gate ran)."""

    def on_complete(self, uop: DynInst, cycle: int) -> None:
        """``uop`` wrote back its result."""

    def on_safe(self, uop: DynInst, cycle: int) -> None:
        """A protected load or FP op became safe (event C)."""

    def on_squash(self, uop: DynInst, cycle: int) -> None:
        """``uop`` was squashed (from the ROB or the decode queue)."""

    def on_commit(self, uop: DynInst, cycle: int) -> None:
        """``uop`` retired."""

    def on_cycle_end(self, cycle: int) -> None:
        """Every stage of ``cycle`` has run."""


class DeadlockError(RuntimeError):
    """No instruction committed for an implausibly long time."""


@dataclass(frozen=True)
class HangDiagnostics:
    """Snapshot of a wedged machine, taken when the watchdog fires.

    Everything a post-mortem needs without a debugger attached: where the
    machine stopped, what the ROB head is and why it cannot commit, the
    LSQ/event-heap state that would have to change for progress, and which
    protection scheme was driving issue policy.
    """

    cycle: int
    last_commit_cycle: int
    hang_window: int
    instructions: int
    stall_reason: str | None
    rob_head: str | None
    rob_head_state: dict[str, object]
    rob_occupancy: int
    iq_occupancy: int
    lq_occupancy: int
    sq_occupancy: int
    lq_blocked: dict[str, object]
    event_heap_head: str | None
    event_heap_size: int
    fetch_state: dict[str, object]
    protection: str

    def as_dict(self) -> dict[str, object]:
        from dataclasses import asdict

        return asdict(self)

    def __str__(self) -> str:
        head = self.rob_head or "<empty ROB>"
        return (
            f"wedged at cycle {self.cycle} (no commit since "
            f"{self.last_commit_cycle}, window {self.hang_window}); "
            f"ROB head {head} blocked on {self.stall_reason!r}; "
            f"event heap head {self.event_heap_head or '<empty>'}; "
            f"protection {self.protection}"
        )


class SimulationHang(DeadlockError):
    """The forward-progress watchdog fired: no commit for ``hang_window``
    cycles.  Carries a :class:`HangDiagnostics` snapshot taken at the
    moment the watchdog tripped (``.diagnostics``), so a hung sweep cell
    reports *why* the machine wedged instead of silently spinning to the
    cycle budget.  Subclasses :class:`DeadlockError` for compatibility.
    """

    def __init__(self, diagnostics: HangDiagnostics) -> None:
        super().__init__(str(diagnostics))
        self.diagnostics = diagnostics


#: ``SimulationResult.termination`` values: a clean HALT commit, or which
#: budget ran out first.  Anything but ``halted`` means the workload did not
#: finish and derived figures are suspect.
TERMINATION_HALTED = "halted"
TERMINATION_MAX_CYCLES = "max_cycles"
TERMINATION_MAX_INSTRUCTIONS = "max_instructions"


@dataclass(frozen=True)
class SimulationResult:
    """Summary of one simulation run."""

    cycles: int
    instructions: int
    stats: dict[str, float]
    #: Why the run stopped: ``halted`` (clean), ``max_cycles`` or
    #: ``max_instructions`` (budget exhausted without a HALT commit).
    termination: str = TERMINATION_HALTED

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def halted(self) -> bool:
        return self.termination == TERMINATION_HALTED


def _operands(values: list, uop: DynInst) -> tuple:
    """The values of ``uop``'s ``rs1`` and ``rs2`` (0 for an absent one),
    read straight from the physical register file."""
    src = uop.src_pregs
    if len(src) == 2:
        return values[src[0]], values[src[1]]
    if not src:
        return 0, 0
    if uop.inst.rs1 is not None:
        return values[src[0]], 0
    return 0, values[src[0]]


class Core:
    """One out-of-order core attached to a memory hierarchy."""

    #: Event-driven fast-forward (on by default): when a cycle is provably
    #: idle, ``run()`` jumps straight to the next wake point, accruing the
    #: per-cycle accounting for the skipped span in closed form (see
    #: :meth:`_fast_forward`).  A plain attribute rather than a config knob
    #: because it must not affect results — the accrual is bit-identical to
    #: stepping by construction — so it has no business in the result-cache
    #: key.  Set to ``False`` (per instance, or on the class to cover
    #: ``execute()``-built cores) to force the naive one-``step()``-per-cycle
    #: loop; attaching any observer disables skipping automatically
    #: (observers see every cycle).
    fast_forward = True

    def __init__(
        self,
        program: Program,
        config: MachineConfig | None = None,
        protection: ProtectionScheme | None = None,
        hierarchy: MemoryHierarchy | None = None,
        check_golden: bool = True,
        golden: "GoldenReference | None" = None,
    ) -> None:
        self.program = program
        self.config = config or MachineConfig()
        self.hierarchy = hierarchy or MemoryHierarchy(self.config)
        self.protection = protection or UnsafeProtection()
        self.check_golden = check_golden

        core_cfg = self.config.core
        self.prf = PhysRegFile(core_cfg.phys_int_regs + core_cfg.phys_fp_regs)
        self.rename_map = RenameMap(self.prf)
        self.rob = ReorderBuffer(core_cfg.rob_entries)
        # The issue queue, in insertion order (a dict for O(1) removal).
        self.iq: dict[DynInst, None] = {}
        # Wakeup-driven select: the IQ uops whose issue operands are all
        # ready, in IQ-insertion order, and per physical register the IQ
        # uops still waiting on it (squashed ones are dropped lazily).
        self._ready: list[DynInst] = []
        self._consumers: list[list[DynInst]] = [[] for _ in range(self.prf.num_regs)]
        self._iq_stamp = 0
        self.lq = LoadQueue(core_cfg.lq_entries)
        self.sq = StoreQueue(core_cfg.sq_entries)
        self.bpred = TournamentPredictor()
        self.btb = BranchTargetBuffer()

        self.committed = ArchState(image=program.initial_memory)
        # The golden reference is pluggable: by default the functional ISS
        # re-executes the program alongside the timing model, but any object
        # with an :class:`Interpreter`-shaped ``step()`` (seq/pc/opcode/
        # result) can stand in — e.g. a recorded architectural trace cursor
        # (``repro.replay.TraceCursor``), which verifies the commit stream
        # without re-running the functional model.
        if golden is None and check_golden:
            golden = Interpreter(program)
        self._golden = golden

        self.cycle = 0
        self.halted = False
        self._seq = 0
        self.fetch_pc = 0
        self._fetch_resume_cycle = 0
        self._fetch_halted = False
        self._decode_queue: deque[DynInst] = deque()
        # Scheduled events: one FIFO bucket of ``(kind, uop)`` per cycle,
        # and a heap of the cycles that have a bucket (see _schedule).
        self._event_buckets: dict[int, list[tuple[str, DynInst]]] = {}
        self._event_cycles: list[int] = []
        self._last_commit_cycle = 0
        self._hang_window = self.DEFAULT_HANG_WINDOW

        # Loads/FP ops under protection whose safe (C) event is pending.
        self._protected_watch: list[DynInst] = []
        # Branches whose resolution STT is delaying.
        self._pending_resolutions: list[DynInst] = []
        # Stores whose address is computed but whose data is still in flight.
        self._stores_awaiting_data: list[DynInst] = []

        self.stats = StatGroup("core")
        self._stall_stats = self.stats.group("stall")

        # Per-cycle accounting, kept in plain ints (folded into ``stats`` at
        # the end of ``run()``) so the always-on cost per cycle is a handful
        # of integer adds.
        self.commit_active_cycles = 0
        self._issue_active_cycles = 0
        self._dispatch_active_cycles = 0
        self._occ_rob = 0
        self._occ_iq = 0
        self._occ_lq = 0
        self._occ_sq = 0
        self._occ_decode = 0
        self._stall_counts: dict[str, int] = {}
        self._structural_stalls: dict[str, int] = {}
        # Per-uop counts, in plain ints for the same reason: fetched,
        # issued and committed uops, and each issue-gate outcome.  A delay
        # is one ``core.*_delay_cycles`` cycle and one ``decisions.*_delay``;
        # an oblivious issue is ``core.obl_issued`` too, and a fast FP
        # prediction ``core.fp_predicted_fast``.
        self._n_fetched = 0
        self._n_issued = 0
        self._n_instructions = 0
        self._n_load_normal = 0
        self._n_load_oblivious = 0
        self._n_load_buffered = 0
        self._n_load_delays = 0
        self._n_fp_normal = 0
        self._n_fp_predict_fast = 0
        self._n_fp_delays = 0

        #: Attached observers (:class:`CoreObserver`), in attach order (see
        #: :meth:`attach_observer`); empty by default.
        self.observers: tuple[CoreObserver, ...] = ()

        # Fast-forward telemetry (plain attributes, deliberately not stats
        # counters: the stats dict must stay bit-identical between the
        # skipping and naive loops).
        self.ff_skipped_cycles = 0
        self.ff_windows = 0
        # Per-cycle ledger (reset at the top of every step): which of the
        # step's stat bumps would repeat identically each cycle while the
        # machine stays idle.  This is what lets _fast_forward replay a
        # skipped span exactly.
        self._cycle_activity = 0
        self._cycle_stall_reason: str | None = None
        self._cycle_fetch_stall: str | None = None
        self._cycle_dispatch_stall: str | None = None
        self._cycle_validation_stall = False
        self._cycle_delayed_loads: list[DynInst] = []
        self._cycle_delayed_fps: list[DynInst] = []

        self.protection.attach(self)
        # The scheme's lifecycle hooks, bound once; ``None`` for one it
        # inherits as a no-op, which is then never called.
        (
            self._on_rename,
            self._begin_cycle,
            self._on_complete,
            self._on_commit,
            self._on_squash,
            self._on_load_outcome,
        ) = (defined_hook(self.protection, name) for name in LIFECYCLE_HOOKS)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    #: Default forward-progress window: cycles without a commit before the
    #: watchdog raises :class:`SimulationHang`.  Far beyond any real stall
    #: (a DRAM round trip is ~hundreds of cycles), far below the cycle
    #: budget a wedged machine would otherwise silently spin to.
    DEFAULT_HANG_WINDOW = 50_000

    def attach_observer(self, observer: CoreObserver) -> None:
        """Subscribe ``observer`` to the pipeline events.

        Side effect: the run's idle-cycle fast-forward turns off, since
        observers see every cycle.  Attach before :meth:`run`.
        """
        self.observers = (*self.observers, observer)

    def detach_observer(self, observer: CoreObserver) -> None:
        self.observers = tuple(o for o in self.observers if o is not observer)

    def run(
        self,
        max_instructions: int = 1_000_000,
        max_cycles: int = 10_000_000,
        hang_window: int | None = None,
    ) -> SimulationResult:
        """Simulate until HALT commits (or a limit is hit).

        ``hang_window`` configures the forward-progress watchdog: if no
        instruction commits for that many cycles the run aborts with a
        :class:`SimulationHang` carrying a :class:`HangDiagnostics`
        snapshot, instead of spinning to ``max_cycles``.  Exhausting a
        budget (``max_cycles``/``max_instructions``) without a HALT is a
        distinct, explicit outcome reported via
        ``SimulationResult.termination``.
        """
        if hang_window is None:
            hang_window = self.DEFAULT_HANG_WINDOW
        if hang_window <= 0:
            raise ValueError(f"hang_window must be positive, got {hang_window}")
        self._hang_window = hang_window
        target = self._n_instructions + max_instructions
        skipping = (
            self.fast_forward
            and not self.observers
            and self.protection.supports_fast_forward
        )
        step = self.step
        while not self.halted and self.cycle < max_cycles:
            idle = step()
            if self._n_instructions >= target:
                break
            if idle and skipping:
                self._fast_forward(max_cycles)
            if self.cycle - self._last_commit_cycle > hang_window:
                raise SimulationHang(self._hang_diagnostics(hang_window))
        self._fold_cycle_accounting()
        merged = dict(self.stats.as_dict())
        merged.update(self.hierarchy.stats.as_dict())
        protection_stats = getattr(self.protection, "stats", None)
        if protection_stats is not None:
            merged.update(protection_stats.as_dict())
        merged.update(self.protection.decision_stats.as_dict(prefix="protection."))
        merged["core.bpred_mispredict_rate"] = self.bpred.mispredict_rate
        if self.halted:
            termination = TERMINATION_HALTED
        elif self._n_instructions >= target:
            termination = TERMINATION_MAX_INSTRUCTIONS
        else:
            termination = TERMINATION_MAX_CYCLES
        return SimulationResult(
            cycles=self.cycle,
            instructions=self._n_instructions,
            stats=merged,
            termination=termination,
        )

    def _hang_diagnostics(self, hang_window: int) -> HangDiagnostics:
        """Snapshot everything a hang post-mortem needs (watchdog trip)."""
        head = self.rob.head
        head_state: dict[str, object] = {}
        if head is not None:
            # A uop without protection state reports the fresh defaults.
            tx = head.tx if head.tx is not None else TransmitterState()
            head_state = {
                "seq": head.seq,
                "pc": head.pc,
                "opcode": head.inst.opcode.mnemonic,
                "state": head.state.value,
                "obl_state": tx.obl_state.name,
                "safe": tx.safe,
                "pending_squash": tx.pending_squash,
                "needs_validation": tx.needs_validation,
                "validation_done": tx.validation_done,
                "delayed_cycles": head.delayed_cycles,
                "resolution_pending": head.resolution_pending,
            }
        lq_blocked: dict[str, object] = {
            "stores_awaiting_data": len(self._stores_awaiting_data),
            "protected_watch": len(self._protected_watch),
            "pending_resolutions": len(self._pending_resolutions),
        }
        heap_head = None
        if self._event_cycles:
            cycle = self._event_cycles[0]
            kind, uop = self._event_buckets[cycle][0]
            heap_head = f"{kind}@{cycle} for {uop!r}"
        return HangDiagnostics(
            cycle=self.cycle,
            last_commit_cycle=self._last_commit_cycle,
            hang_window=hang_window,
            instructions=self._n_instructions,
            stall_reason=self._stall_reason(),
            rob_head=repr(head) if head is not None else None,
            rob_head_state=head_state,
            rob_occupancy=len(self.rob._entries),
            iq_occupancy=len(self.iq),
            lq_occupancy=len(self.lq._entries),
            sq_occupancy=len(self.sq._entries),
            lq_blocked=lq_blocked,
            event_heap_head=heap_head,
            event_heap_size=sum(map(len, self._event_buckets.values())),
            fetch_state={
                "fetch_pc": self.fetch_pc,
                "fetch_halted": self._fetch_halted,
                "fetch_resume_cycle": self._fetch_resume_cycle,
                "decode_queue": len(self._decode_queue),
            },
            protection=type(self.protection).__name__,
        )

    def step(self) -> bool:
        """Advance one cycle.

        Returns ``True`` when the cycle was *provably idle*: nothing
        committed, issued, dispatched or fetched, no event fired and no
        protected-uop state machine advanced.  The pipeline state an idle
        cycle reads is exactly the state it leaves behind, so every
        following cycle repeats its accounting verbatim until the next
        scheduled wake point — the fast-forward eligibility predicate
        (see :meth:`_fast_forward`).

        A stage with nothing to do this cycle is not called at all.
        """
        cycle = self.cycle
        self._cycle_activity = 0
        self._cycle_fetch_stall = None
        self._cycle_dispatch_stall = None
        self._cycle_validation_stall = False
        if self._cycle_delayed_loads:
            self._cycle_delayed_loads.clear()
        if self._cycle_delayed_fps:
            self._cycle_delayed_fps.clear()
        if self._event_cycles and self._event_cycles[0] <= cycle:
            self._process_events()
        if self._begin_cycle is not None:
            self._begin_cycle(cycle)
        if self._pending_resolutions:
            self._process_pending_resolutions()
        if self._protected_watch:
            self._process_safe_transitions()
        committed = self._commit() if self.rob._entries else 0
        if self._stores_awaiting_data:
            self._capture_store_data()
        issued = self._issue() if self._ready else 0
        dispatched = self._dispatch() if self._decode_queue else 0
        if self._fetch_halted or cycle < self._fetch_resume_cycle:
            fetched = 0
        else:
            fetched = self._fetch()
        # Per-cycle accounting (the observability layer's always-on half),
        # inlined and reading the queues' backing stores directly so the
        # per-cycle cost stays a handful of C-level operations.  Every cycle
        # is either *productive* (at least one commit) or charged to exactly
        # one ``core.stall.<reason>`` counter, so
        #
        #     cycles == commit_active_cycles + sum(core.stall.*)
        #
        # holds as an exact invariant (asserted in the test suite).  Stall
        # reasons land in a plain dict folded into stats after the run.
        self._occ_rob += len(self.rob._entries)
        self._occ_iq += len(self.iq)
        self._occ_lq += len(self.lq._entries)
        self._occ_sq += len(self.sq._entries)
        self._occ_decode += len(self._decode_queue)
        if committed:
            self.commit_active_cycles += 1
        else:
            reason = self._stall_reason()
            self._cycle_stall_reason = reason
            counts = self._stall_counts
            counts[reason] = counts.get(reason, 0) + 1
        if issued:
            self._issue_active_cycles += 1
        if dispatched:
            self._dispatch_active_cycles += 1
        if self.observers:
            for observer in self.observers:
                observer.on_cycle_end(cycle)
        self.cycle = cycle + 1
        return (
            committed == 0
            and issued == 0
            and dispatched == 0
            and fetched == 0
            and self._cycle_activity == 0
        )

    def _next_wake(self) -> int | None:
        """Earliest future cycle at which an idle machine can change state.

        Only three things un-idle a stalled pipeline: a scheduled event
        (writeback / DO response / branch resolve / validation), the fetch
        redirect penalty expiring, or the fetch-to-decode latency of the
        decode-queue head elapsing.  Everything else (safe transitions,
        pending resolutions, issue decisions) is a pure function of state
        those three produce.
        """
        # Called after step() already advanced ``self.cycle``, so a wake due
        # *this* cycle (== self.cycle) is a valid candidate — it yields a
        # zero-length span and simply suppresses the skip.
        wake = self._event_cycles[0] if self._event_cycles else None
        if not self._fetch_halted and self.cycle <= self._fetch_resume_cycle:
            if wake is None or self._fetch_resume_cycle < wake:
                wake = self._fetch_resume_cycle
        if self._decode_queue:
            ready = self._decode_queue[0].decode_ready
            if ready >= self.cycle and (wake is None or ready < wake):
                wake = ready
        return wake

    def _fast_forward(self, max_cycles: int) -> None:
        """Jump from a provably idle cycle to the next wake point.

        The per-cycle accounting the naive loop would have produced over the
        skipped span is accrued in closed form: the occupancy integrals grow
        by ``span * current_length`` (queue contents are frozen while idle),
        the recorded single stall reason absorbs ``span`` cycles, and the
        step's repeatable stat bumps — fetch/dispatch structural stalls,
        the commit-stage validation stall, and per-delayed-uop STT delay
        counters (including the matching ``protection.decisions.*`` bump,
        which the issue stage counts once per retry) — are replayed
        ``span`` times.  The result is bit-identical to stepping.
        """
        wake = self._next_wake()
        # Never skip past where the naive loop would have stopped: the
        # run() watchdog fires once cycle reaches
        # _last_commit_cycle + hang_window + 1, and the while condition
        # stops at max_cycles.  With no wake point at all the machine is
        # wedged for good, so jumping straight to the deadline is exact too.
        target = min(self._last_commit_cycle + self._hang_window + 1, max_cycles)
        if wake is not None and wake < target:
            target = wake
        span = target - self.cycle
        if span <= 0:
            return
        self._occ_rob += span * len(self.rob._entries)
        self._occ_iq += span * len(self.iq)
        self._occ_lq += span * len(self.lq._entries)
        self._occ_sq += span * len(self.sq._entries)
        self._occ_decode += span * len(self._decode_queue)
        counts = self._stall_counts
        reason = self._cycle_stall_reason
        counts[reason] = counts.get(reason, 0) + span
        # The stepped cycle counted each of its structural stalls once.
        structural = self._structural_stalls
        for stall in (self._cycle_fetch_stall, self._cycle_dispatch_stall):
            if stall is not None:
                structural[stall] += span
        if self._cycle_validation_stall:
            structural["validation_stall_cycles"] += span
        for uop in self._cycle_delayed_loads:
            uop.delayed_cycles += span
            self._n_load_delays += span
        for uop in self._cycle_delayed_fps:
            uop.delayed_cycles += span
            self._n_fp_delays += span
        self.cycle = target
        self.ff_skipped_cycles += span
        self.ff_windows += 1

    def _stall_reason(self) -> str:
        """Attribute a zero-commit cycle to the ROB head's blocking cause."""
        entries = self.rob._entries
        if not entries:
            return "frontend"
        head = entries[0]
        if head.is_branch and head.state.done:
            # Resolution scheduled (or held by STT's implicit-channel rule).
            return "branch_hold" if head.resolution_pending else "exec"
        state = head.state
        if not state.done:
            if state is _WAITING:
                if head.delayed_cycles > 0:
                    return "stt_delay"
                ready = self.prf.ready
                for preg in head.src_pregs:
                    if not ready[preg]:
                        return "operands"
                return "disambiguation" if head.is_load else "issue_width"
            if state is _ISSUED:
                if head.is_load and head.tx.obl_state is _OBL_INFLIGHT:
                    return "do_variant_wait"
                return "memory" if head.is_load else "exec"
            return "frontend"  # FETCHED head cannot happen; be safe
        tx = head.tx
        if head.is_load:
            if tx.pending_squash:
                return "do_fail_wait"
            if tx.obl_state is not _OBL_NONE and not tx.safe:
                return "do_safe_wait"
            if tx.needs_validation and not tx.validation_done:
                return "validation_wait"
        elif tx is not None and tx.fp_predicted_fast and not tx.safe:
            return "do_safe_wait"
        # Head became ready after the commit stage already ran this cycle.
        return "commit_skew"

    def _fold_cycle_accounting(self) -> None:
        """Publish the plain-int per-cycle and per-uop accumulators as stats
        counters.  A counter the stepped path never touched stays absent,
        as it would if it were bumped one at a time."""
        stats = self.stats
        if self._n_fetched:
            stats.set("fetched", self._n_fetched)
        if self._n_issued:
            stats.set("issued", self._n_issued)
        if self._n_instructions:
            stats.set("instructions", self._n_instructions)
        if self._n_load_oblivious:
            stats.set("obl_issued", self._n_load_oblivious)
        if self._n_load_delays:
            stats.set("load_delay_cycles", self._n_load_delays)
        if self._n_fp_predict_fast:
            stats.set("fp_predicted_fast", self._n_fp_predict_fast)
        if self._n_fp_delays:
            stats.set("fp_delay_cycles", self._n_fp_delays)
        decisions = self.protection.decision_stats
        for action, count in (
            (_LOAD_NORMAL, self._n_load_normal),
            (_LOAD_OBLIVIOUS, self._n_load_oblivious),
            (_LOAD_DELAY, self._n_load_delays),
            (_LOAD_BUFFERED, self._n_load_buffered),
        ):
            if count:
                decisions.set(LOAD_DECISION_COUNTERS[action], count)
        for action, count in (
            (_FP_NORMAL, self._n_fp_normal),
            (_FP_PREDICT_FAST, self._n_fp_predict_fast),
            (_FP_DELAY, self._n_fp_delays),
        ):
            if count:
                decisions.set(FP_DECISION_COUNTERS[action], count)
        for reason in STALL_REASONS:
            if reason in self._stall_counts:
                self._stall_stats.set(reason, self._stall_counts[reason])
        for stall in STRUCTURAL_STALLS:
            if stall in self._structural_stalls:
                stats.set(stall, self._structural_stalls[stall])
        self.stats.set("commit_active_cycles", self.commit_active_cycles)
        self.stats.set("issue_active_cycles", self._issue_active_cycles)
        self.stats.set("dispatch_active_cycles", self._dispatch_active_cycles)
        occ = self.stats.group("occ")
        occ.set("rob", self._occ_rob)
        occ.set("iq", self._occ_iq)
        occ.set("lq", self._occ_lq)
        occ.set("sq", self._occ_sq)
        occ.set("decode", self._occ_decode)
        occ.set("rob_peak", self.rob.peak_occupancy)
        occ.set("lq_peak", self.lq.peak_occupancy)
        occ.set("sq_peak", self.sq.peak_occupancy)

    def speculative_read(self, addr: int, seq: int) -> int | float:
        """Memory view of a load at ``seq``: SQ forwarding over committed
        state (exact under single-core TSO)."""
        store = self.sq.forward_source(addr, seq)
        if store is not None and store.store_value is not None:
            return store.store_value
        return self.committed.read_mem(addr)

    def notify_invalidation(self, addr: int) -> None:
        """An external agent invalidated ``addr``'s line (coherence hook).

        Completed-but-uncommitted loads of that line may need a consistency
        squash; per Section V-C1 the squash is *delayed* until the load's
        address is untainted, and loads that performed a validation (or read
        from the L1) are covered by the normal path.
        """
        line = self.hierarchy.line_of(addr)
        self.hierarchy.external_invalidate(addr)
        for uop in self.lq.loads_of_line(line):
            uop.tx.invalidated_while_inflight = True
            self.stats.bump("consistency_marks")

    # ------------------------------------------------------------------ #
    # Events
    # ------------------------------------------------------------------ #

    def _schedule(self, cycle: int, kind: str, uop: DynInst) -> None:
        """Queue event ``kind`` for ``uop`` at ``cycle`` (at the earliest
        the next cycle).

        Events fire in cycle order, and within a cycle in the order they
        were scheduled: each cycle has one FIFO bucket, and a heap holds
        the distinct cycles.  An event is always scheduled for a later
        cycle than the one being processed, so a bucket never grows while
        it is drained.
        """
        if cycle <= self.cycle:
            cycle = self.cycle + 1
        bucket = self._event_buckets.get(cycle)
        if bucket is None:
            self._event_buckets[cycle] = [(kind, uop)]
            heapq.heappush(self._event_cycles, cycle)
        else:
            bucket.append((kind, uop))

    def _process_events(self) -> None:
        cycles = self._event_cycles
        buckets = self._event_buckets
        now = self.cycle
        while cycles and cycles[0] <= now:
            bucket = buckets.pop(heapq.heappop(cycles))
            # Even a squashed uop's event counts as activity: popping it
            # changed the queue, so the next cycle is not a replay of this
            # one (conservative, and events are never idle-span wake-ups
            # anyway — _next_wake stops the skip at the earliest bucket).
            self._cycle_activity += len(bucket)
            for kind, uop in bucket:
                if uop.squashed:
                    continue
                if kind == "complete":
                    if not uop.is_store:
                        self._writeback(uop, uop.value if uop.is_load else uop.result)
                        continue
                    uop.state = _COMPLETED
                    uop.complete_cycle = now
                    if self.observers:
                        for observer in self.observers:
                            observer.on_complete(uop, now)
                elif kind == "branch_resolve":
                    self._resolve_branch(uop)
                elif kind == "obl_resp":
                    self._obl_wait_buffer(uop)
                elif kind == "validation_done":
                    self._validation_done(uop)
                else:  # pragma: no cover
                    raise AssertionError(f"unknown event kind {kind}")

    # ------------------------------------------------------------------ #
    # Fetch
    # ------------------------------------------------------------------ #

    def _fetch(self) -> int:
        """Fetch up to ``fetch_width`` uops (step() calls this only while
        fetch is neither halted nor waiting out a redirect penalty)."""
        core_cfg = self.config.core
        width = core_cfg.fetch_width
        decode_queue = self._decode_queue
        if len(decode_queue) >= 3 * width:
            stall = self._cycle_fetch_stall = "fetch_buffer_full_cycles"
            structural = self._structural_stalls
            structural[stall] = structural.get(stall, 0) + 1
            return 0
        program = self.program.instructions
        end = len(program)
        decode_ready = self.cycle + core_cfg.fetch_to_decode_latency
        pc = self.fetch_pc
        seq = self._seq
        observers = self.observers
        predict = self.bpred.predict
        fetched = 0
        while fetched < width:
            if not 0 <= pc < end:
                # Ran off the program on a wrong path; wait for a redirect.
                structural = self._structural_stalls
                structural["fetch_off_end_cycles"] = (
                    structural.get("fetch_off_end_cycles", 0) + 1
                )
                if fetched == 0:
                    self._cycle_fetch_stall = "fetch_off_end_cycles"
                break
            inst = program[pc]
            opcode = inst.opcode
            uop = DynInst(seq, pc, inst, decode_ready)
            seq += 1
            next_pc = pc + 1
            taken = False
            if uop.is_branch:
                if opcode.is_conditional_branch:
                    prediction = predict(pc)
                    uop.prediction = prediction
                    taken = prediction.taken
                else:  # JMP
                    taken = True
                if taken and inst.target is not None:
                    next_pc = inst.target
                uop.predicted_next_pc = next_pc
            decode_queue.append(uop)
            if observers:
                for observer in observers:
                    observer.on_fetch(uop, self.cycle)
            pc = next_pc
            fetched += 1
            if opcode is _HALT:
                # Stop fetching past a (possibly speculative) HALT; a squash
                # redirect un-sticks us if it was wrong-path.
                self._fetch_halted = True
                break
            if taken:
                break  # taken-branch fetch break
        self._seq = seq
        self.fetch_pc = pc
        self._n_fetched += fetched
        return fetched

    # ------------------------------------------------------------------ #
    # Dispatch / rename
    # ------------------------------------------------------------------ #

    def _dispatch(self) -> int:
        """Rename up to ``decode_width`` decoded uops into the ROB, LQ/SQ
        and IQ, in one pass."""
        decode_queue = self._decode_queue
        core_cfg = self.config.core
        width = core_cfg.decode_width
        cycle = self.cycle
        rob, lq, sq = self.rob, self.lq, self.sq
        # Free-slot counts stand in for the queues' own push() checks; the
        # peaks are updated once, after the loop.
        rob_entries, lq_entries, sq_entries = rob._entries, lq._entries, sq._entries
        rob_free = rob.capacity - len(rob_entries)
        lq_free = lq.capacity - len(lq_entries)
        sq_free = sq.capacity - len(sq_entries)
        iq_free = core_cfg.iq_entries - len(self.iq)
        sources = self.program.sources
        mapping = self.rename_map._map
        rename_dest = self.rename_map.rename_dest
        on_rename = self._on_rename
        enter_iq = self._enter_iq
        observers = self.observers
        stall = None
        dispatched = 0
        while dispatched < width and decode_queue:
            uop = decode_queue[0]
            if uop.decode_ready > cycle:
                break
            is_load = uop.is_load
            is_store = uop.is_store
            needs_iq = uop.op_class is not _SYSTEM
            if not rob_free:
                stall = "rob_full_stalls"
                break
            if is_load and not lq_free:
                stall = "lq_full_stalls"
                break
            if is_store and not sq_free:
                stall = "sq_full_stalls"
                break
            if needs_iq and not iq_free:
                stall = "iq_full_stalls"
                break
            # Rename: sources first (an instruction may overwrite its own
            # source register), then the destination.
            archs = sources[uop.pc]
            if len(archs) == 2:
                uop.src_pregs = (mapping[archs[0]], mapping[archs[1]])
            elif archs:
                uop.src_pregs = (mapping[archs[0]],)
            rd = uop.inst.rd
            if rd is not None:
                renamed = rename_dest(rd)
                if renamed is None:
                    stall = "no_preg_stalls"
                    break
                uop.dest_preg, uop.old_dest_preg = renamed
            if on_rename is not None:
                on_rename(uop)
            decode_queue.popleft()
            rob_entries.append(uop)
            rob_free -= 1
            if is_load:
                lq_entries.append(uop)
                lq_free -= 1
            elif is_store:
                sq_entries.append(uop)
                sq_free -= 1
            if needs_iq:
                uop.state = _WAITING
                enter_iq(uop)
                iq_free -= 1
            else:
                uop.state = _COMPLETED
                uop.complete_cycle = cycle
            if observers:
                for observer in observers:
                    observer.on_dispatch(uop, cycle)
            dispatched += 1
        if stall is not None:
            structural = self._structural_stalls
            structural[stall] = structural.get(stall, 0) + 1
            self._cycle_dispatch_stall = stall
        if dispatched:
            if len(rob_entries) > rob.peak_occupancy:
                rob.peak_occupancy = len(rob_entries)
            if len(lq_entries) > lq.peak_occupancy:
                lq.peak_occupancy = len(lq_entries)
            if len(sq_entries) > sq.peak_occupancy:
                sq.peak_occupancy = len(sq_entries)
        return dispatched

    # ------------------------------------------------------------------ #
    # Issue / execute
    # ------------------------------------------------------------------ #

    def _enter_iq(self, uop: DynInst) -> None:
        """Insert ``uop`` at the IQ tail: stamp it, and either put it on the
        ready list or register it with the producers it still waits on.

        A store waits only on its base register (split AGU: its data may
        arrive after address generation, see :meth:`_capture_store_data`).
        """
        self._iq_stamp = uop.iq_stamp = self._iq_stamp + 1
        self.iq[uop] = None
        ready = self.prf.ready
        waiting = 0
        if uop.is_store:
            preg = uop.src_pregs[1]
            if not ready[preg]:
                self._consumers[preg].append(uop)
                waiting = 1
        else:
            for preg in uop.src_pregs:
                if not ready[preg]:
                    self._consumers[preg].append(uop)
                    waiting += 1
        uop.waiting_on = waiting
        if not waiting:
            # The newest stamp: the tail of the ready list.
            self._ready.append(uop)

    def _issue(self) -> int:
        """Select from the ready list, oldest IQ entry first.

        The order is IQ insertion, which is what an in-order scan of the IQ
        picks.  It equals ``seq`` order as long as a re-executed load or FP
        op re-enters the IQ tail only after everything younger was squashed
        (both re-entry paths squash first), but the stamp keeps select exact
        without leaning on that.  Every FU class shares the one issue
        width, so the ready list is one list, not one per class.  step()
        calls this only with a non-empty ready list.
        """
        ready = self._ready
        core_cfg = self.config.core
        slots = core_cfg.issue_width
        mem_slots = core_cfg.mem_ports
        alu_free = branch_free = core_cfg.int_alu_units  # branches share ALUs
        mul_free = core_cfg.int_mul_units
        fp_free = core_cfg.fp_units
        iq = self.iq
        values = self.prf.value
        cycle = self.cycle
        schedule = self._schedule
        observers = self.observers
        kept: list[DynInst] = []
        for index, uop in enumerate(ready):
            if slots == 0:
                kept += ready[index:]
                break
            if uop.is_load or uop.is_store:
                if mem_slots == 0 or (uop.is_load and not self._try_issue_load(uop)):
                    kept.append(uop)
                    continue
                if uop.is_store:
                    self._issue_store(uop)
                mem_slots -= 1
            elif uop.is_fp_transmitter:
                if fp_free == 0 or not self._try_issue_fp_transmitter(uop):
                    kept.append(uop)
                    continue
                fp_free -= 1
            else:
                # ALU / FP-non-transmitter / branch: take a unit of the
                # class, execute with the renamed operand values and
                # schedule the writeback (or resolution) after the class's
                # fixed latency.
                op_class = uop.op_class
                if op_class is _INT_ALU and alu_free:
                    alu_free -= 1
                    latency = 1
                elif op_class is _BRANCH and branch_free:
                    branch_free -= 1
                    latency = 1
                elif op_class is _INT_MUL and mul_free:
                    mul_free -= 1
                    latency = 3
                elif op_class is _FP and fp_free:
                    fp_free -= 1
                    latency = _FP_FAST_LATENCY[uop.inst.opcode.mnemonic]
                    if self._fp_operands_slow(uop):
                        latency += FP_SLOW_EXTRA
                else:
                    kept.append(uop)
                    continue
                inst = uop.inst
                a, b = _operands(values, uop)
                value = inst.opcode.semantics(a, b, inst.imm)
                uop.issue_cycle = cycle
                if uop.is_branch:
                    # Branches have no dest; completion coincides with
                    # resolution scheduling (the squash, if any, happens at
                    # resolve time).
                    uop.actual_taken = value
                    if value and inst.target is not None:
                        uop.actual_next_pc = inst.target
                    uop.state = _COMPLETED
                    uop.complete_cycle = cycle + latency
                    schedule(cycle + latency, "branch_resolve", uop)
                else:
                    uop.state = _ISSUED
                    uop.result = value
                    schedule(cycle + latency, "complete", uop)
                if observers:
                    for observer in observers:
                        observer.on_issue(uop, cycle)
            del iq[uop]
            slots -= 1
        issued = len(ready) - len(kept)
        if issued:
            self._ready = kept
            self._n_issued += issued
        return issued

    def _fp_operands_slow(self, uop: DynInst) -> bool:
        values = self.prf.value
        for preg in uop.src_pregs:
            value = values[preg]
            if isinstance(value, float) and is_subnormal(value):
                return True
        return False

    def _issue_store(self, uop: DynInst) -> None:
        """Address generation; data is captured when its register is ready."""
        prf = self.prf
        inst = uop.inst
        uop.addr = inst.opcode.semantics(0, prf.value[uop.src_pregs[1]], inst.imm)
        uop.line = self.hierarchy.line_of(uop.addr)
        uop.issue_cycle = self.cycle
        uop.state = _ISSUED
        data_preg = uop.src_pregs[0]
        if prf.ready[data_preg]:
            uop.store_value = prf.value[data_preg]
            self._schedule(self.cycle + 1, "complete", uop)
        else:
            self._stores_awaiting_data.append(uop)
        if self.observers:
            for observer in self.observers:
                observer.on_issue(uop, self.cycle)

    def _capture_store_data(self) -> None:
        still_waiting: list[DynInst] = []
        for uop in self._stores_awaiting_data:
            if uop.squashed:
                continue
            if self.prf.ready[uop.src_pregs[0]]:
                uop.store_value = self.prf.value[uop.src_pregs[0]]
                self._schedule(self.cycle + 1, "complete", uop)
                self._cycle_activity += 1
            else:
                still_waiting.append(uop)
        self._stores_awaiting_data = still_waiting

    # --- loads ----------------------------------------------------------- #

    def _try_issue_load(self, uop: DynInst) -> bool:
        """Attempt to issue a ready load; returns False to retry later.

        The issue gate is scheme-agnostic: every :class:`LoadIssueAction`
        maps to one core-side issue path, and DELAY is handled before the
        gate (a delayed load never issues).  A new protection scheme plugs
        in by returning a different action; this method never special-cases
        any scheme.
        """
        # The address is computed before the policy decision (hardware AGUs
        # run regardless; the Perfect predictor's oracle needs it) and kept
        # once the load passes disambiguation.  Source registers cannot
        # change while the load waits, so delayed retries reuse it.  The
        # *value* is read at actual issue because an older store may have
        # drained in the meantime.
        inst = uop.inst
        addr = uop.addr
        fresh = addr is None
        if fresh:
            base = self.prf.value[uop.src_pregs[0]] if inst.rs1 is not None else 0
            addr = inst.opcode.semantics(base, 0, inst.imm)
        forward = None
        stores = self.sq._entries
        if stores and stores[0].seq < uop.seq:
            # Conservative disambiguation: wait until every older store has
            # computed its address.  The same walk finds the forwarding store.
            known, forward = self.sq.load_scan(addr, uop.seq)
            if not known:
                return False
            if forward is not None and forward.store_value is None:
                # The matching store's data has not arrived; the forwarded
                # value would be wrong — retry next cycle.
                return False
        # Otherwise no store older than the load is in flight (the SQ is in
        # program order, so its head settles it): nothing to wait for and
        # nothing to forward, and a delayed load's retry goes straight to
        # the scheme's decision.
        if fresh:
            uop.addr = addr
            uop.line = self.hierarchy.line_of(addr)
        tx = uop.tx
        had_level = tx.predicted_level is not None
        decision = self.protection.load_issue_decision(uop)
        action = decision.action
        observers = self.observers
        if observers:
            for observer in observers:
                observer.on_load_decision(uop, self.cycle, decision)
        if action is _LOAD_DELAY:
            self._n_load_delays += 1
            uop.delayed_cycles += 1
            if not had_level and tx.predicted_level is not None:
                # A fresh location prediction was made this cycle (one-shot
                # predictor-accounting bumps inside the scheme): the cycle
                # is not a pure retry, so it must not be fast-forwarded.
                self._cycle_activity += 1
            else:
                self._cycle_delayed_loads.append(uop)
            return False
        uop.issue_cycle = self.cycle
        uop.state = _ISSUED
        # The ISS's load semantics (FLOAD coerces to float, LOAD to a
        # wrapped 64-bit integer) keep the golden-model comparison exact.
        # The value is what speculative_read would return: the forwarding
        # store's data, else committed memory.
        uop.value = inst.opcode.load_result(
            forward.store_value if forward is not None else self.committed.read_mem(addr)
        )
        if action is _LOAD_NORMAL:
            self._n_load_normal += 1
            self._issue_load_normal(uop, forward)
        elif action is _LOAD_OBLIVIOUS:
            self._n_load_oblivious += 1
            self._issue_load_oblivious(uop, forward, decision.predicted_level)
        elif action is _LOAD_BUFFERED:
            self._n_load_buffered += 1
            self._issue_load_buffered(uop, forward)
        else:  # pragma: no cover - exhaustive over LoadIssueAction
            raise AssertionError(f"no issue path for {action}")
        if observers:
            for observer in observers:
                observer.on_issue(uop, self.cycle)
        return True

    def _issue_load_normal(self, uop: DynInst, forward: DynInst | None) -> None:
        if forward is not None:
            uop.sq_forward_seq = forward.seq
            uop.tx.actual_level = None
            self.stats.bump("sq_forwards")
            self._schedule(self.cycle + _SQ_FORWARD_LATENCY, "complete", uop)
            return
        response = self.hierarchy.load(uop.addr, self.cycle)
        tx = uop.tx
        tx.actual_level = response.level
        if tx.predicted_level is not None:
            # This load carried a location prediction but issued normally —
            # the DRAM-prediction delay fallback.  Train the predictor with
            # what the standard access found (Section V-C3: "update the
            # predictor with the level that the validation finds data in").
            self._train_predictor(uop)
        self._schedule(response.complete_at, "complete", uop)

    def _issue_load_buffered(self, uop: DynInst, forward: DynInst | None) -> None:
        """Transparent speculation (SpecBox-style): execute now with real
        timing, but park the line in the hierarchy's speculative buffer.
        The scheme's ``on_commit``/``on_squash`` hooks release or drop the
        buffered line, so cache state only ever reflects committed loads.
        """
        tx = uop.tx
        if forward is not None:
            uop.sq_forward_seq = forward.seq
            tx.actual_level = None
            self.stats.bump("sq_forwards")
            self._schedule(self.cycle + _SQ_FORWARD_LATENCY, "complete", uop)
            return
        response = self.hierarchy.speculative_load(uop.addr, self.cycle)
        tx.actual_level = response.level
        tx.spec_buffered = True
        self._schedule(response.complete_at, "complete", uop)

    def _issue_load_oblivious(
        self, uop: DynInst, forward: DynInst | None, level: MemLevel
    ) -> None:
        """Event A of Section V-C2: issue as an Obl-Ld at ``level``.

        Per Section V-C3, on a store-queue hit the Obl-Ld still issues
        (uniform resource usage) but correct data is forwarded from the SQ
        once all responses return.
        """
        response = self.hierarchy.oblivious_load(uop.addr, level, self.cycle)
        tx = uop.tx
        tx.obl_state = _OBL_INFLIGHT
        tx.obl_response = response
        tx.predicted_level = level
        tx.actual_level = response.actual_level
        if forward is not None:
            uop.sq_forward_seq = forward.seq
            self.stats.bump("sq_forwards")
        # Validation policy (Section VI-A field 3): exposure if the L1
        # lookup succeeds, or if the load cannot be reordered with older
        # memory operations (the InvisiSpec exposure condition, approximated
        # as "no older memory ops in flight at issue").
        oldest_mem = self._is_oldest_mem_op(uop)
        tx.use_exposure = oldest_mem or (
            response.success and response.actual_level is _L1
        ) or forward is not None
        tx.needs_validation = not tx.use_exposure
        for _, respond_cycle, _ in response.responses:
            self._schedule(respond_cycle, "obl_resp", uop)
        self._protected_watch.append(uop)

    def _older_loads_done(self, uop: DynInst) -> bool:
        """The InvisiSpec exposure condition, evaluated at the safe point:
        with every older load already performed, this load's value can no
        longer violate TSO load-load ordering, so the validation can be
        replaced by an asynchronous exposure (Section V-C1)."""
        return self.lq.all_completed_before(uop.seq)

    def _is_oldest_mem_op(self, uop: DynInst) -> bool:
        return not self.lq.any_older_unretired(uop.seq) and not self.sq.any_older_than(
            uop.seq
        )

    def _obl_wait_buffer(self, uop: DynInst) -> None:
        """A response reached the wait buffer (may be event B)."""
        tx = uop.tx
        if tx.obl_state is not _OBL_INFLIGHT:
            return
        response = tx.obl_response
        # Early forwarding (Section V-C2): once safe, data may be forwarded
        # as soon as a success response (with all earlier responses) arrives.
        if (
            self.config.protection.early_forwarding
            and tx.safe
            and not uop.state.done
            and uop.sq_forward_seq is None
        ):
            first_success = response.first_success_cycle()
            if first_success is not None and first_success <= self.cycle < response.complete_at:
                self.stats.bump("obl_early_forwards")
                self._obl_complete_success(uop)
                return
        if self.cycle < response.complete_at:
            return
        # --- Event B: all responses arrived ---
        tx.obl_state = _OBL_DONE
        sq_hit = uop.sq_forward_seq is not None
        success = response.success or sq_hit
        if not tx.safe:
            # Case 1 ordering (B before C): forward unconditionally —
            # success or fail must look identical to the attacker.
            if success:
                self._obl_complete_success(uop)
            else:
                tx.pending_squash = True
                self.stats.bump("obl_fail_forwards")
                self._writeback(uop, self._poison_value(uop))
            return
        # C already happened (Case 2/3 orderings).
        if success:
            if not uop.state.done:
                self._obl_complete_success(uop)
        elif tx.validation_complete_cycle < 0 and not tx.validation_done:
            # Fail, safe, and no validation in flight (the exposure condition
            # had been assumed at C): it is now safe to reveal the fail, so
            # issue the standard access that will supply the value.
            self._issue_validation(uop)
        # Otherwise: drop the failed result and let the already-issued
        # validation (event D) supply the value.

    def _poison_value(self, uop: DynInst) -> int | float:
        """The architecturally wrong value a failed DO variant forwards: a
        zero of the load's type."""
        return uop.inst.opcode.load_result(0)

    def _obl_complete_success(self, uop: DynInst) -> None:
        if uop.state.done:
            return
        tx = uop.tx
        if tx.safe:
            # Success is public once the load is safe: train the location
            # predictor now (Section V-C3).
            self._train_predictor(uop)
        if uop.sq_forward_seq is None and tx.obl_response is not None:
            first_hit = next(
                (cycle for _, cycle, hit in tx.obl_response.responses if hit), None
            )
            if first_hit is not None:
                # Cycles the correct data sat in the wait buffer waiting for
                # deeper (imprecisely predicted) lookups to respond.
                self.stats.bump("imprecision_cycles", max(0, self.cycle - first_hit))
        # The wait buffer forwards the value read at issue (which
        # speculative_read took from the SQ on a forwarding hit).
        self._writeback(uop, uop.value)

    # ------------------------------------------------------------------ #
    # Completion / writeback
    # ------------------------------------------------------------------ #

    def _writeback(self, uop: DynInst, value: int | float | None) -> None:
        """Complete ``uop`` with ``value``: write its destination register
        and wake the register's consumers (one with no other operand
        outstanding joins the ready list at its IQ position)."""
        if uop.state.done:
            return
        preg = uop.dest_preg
        if preg is not None:
            prf = self.prf
            prf.value[preg] = 0 if value is None else value
            prf.ready[preg] = True
            waiters = self._consumers[preg]
            if waiters:
                self._consumers[preg] = []
                ready = self._ready
                for waiter in waiters:
                    if waiter.squashed:
                        continue
                    waiter.waiting_on -= 1
                    if waiter.waiting_on == 0:
                        insort(ready, waiter, key=_IQ_ORDER)
        cycle = self.cycle
        uop.state = _COMPLETED
        uop.complete_cycle = cycle
        if self.observers:
            for observer in self.observers:
                observer.on_complete(uop, cycle)
        if self._on_complete is not None:
            self._on_complete(uop)

    # ------------------------------------------------------------------ #
    # Branch resolution
    # ------------------------------------------------------------------ #

    def _resolve_branch(self, uop: DynInst) -> None:
        if uop.resolved:
            return
        if not self.protection.may_resolve_branch(uop):
            # Resolution-based implicit channel rule: hold the outcome until
            # the predicate untaints (Section III).
            if not uop.resolution_pending:
                uop.resolution_pending = True
                self._pending_resolutions.append(uop)
                self.stats.bump("delayed_resolutions")
                self.protection.decision_stats.bump("branch_hold")
            return
        self._apply_branch_resolution(uop)

    def _process_pending_resolutions(self) -> None:
        still_pending: list[DynInst] = []
        for uop in self._pending_resolutions:
            if uop.squashed:
                continue
            if self.protection.may_resolve_branch(uop):
                self._cycle_activity += 1
                self._apply_branch_resolution(uop)
            else:
                still_pending.append(uop)
        self._pending_resolutions = still_pending

    def _apply_branch_resolution(self, uop: DynInst) -> None:
        uop.resolved = True
        uop.resolution_pending = False
        if uop.prediction is not None:
            self.bpred.update(uop.pc, uop.prediction, uop.actual_taken)
        if uop.inst.target is not None and uop.actual_taken:
            self.btb.install(uop.pc, uop.inst.target)
        if self._on_complete is not None:
            self._on_complete(uop)
        if uop.actual_next_pc != uop.predicted_next_pc:
            self.stats.bump("branch_squashes")
            if uop.prediction is not None:
                self.bpred.repair(uop.prediction, uop.actual_taken)
            self._squash_after(uop.seq, uop.actual_next_pc)

    # ------------------------------------------------------------------ #
    # Safe (event C) transitions for protected loads / FP ops
    # ------------------------------------------------------------------ #

    def _process_safe_transitions(self) -> None:
        remaining: list[DynInst] = []
        for uop in self._protected_watch:
            if uop.squashed:
                continue
            tx = uop.tx
            if not tx.safe and self.protection.output_safe(uop):
                tx.safe = True
                self._cycle_activity += 1
                if self.observers:
                    for observer in self.observers:
                        observer.on_safe(uop, self.cycle)
                self._on_became_safe(uop)
            elif not tx.safe:
                remaining.append(uop)
        self._protected_watch = remaining

    def _on_became_safe(self, uop: DynInst) -> None:
        """Event C for Obl-Lds; re-execution point for failed Obl-FP ops."""
        if uop.is_fp_transmitter:
            self._fp_became_safe(uop)
            return
        tx = uop.tx
        response = tx.obl_response
        sq_hit = uop.sq_forward_seq is not None
        success = (response is not None and response.success) or sq_hit
        can_expose = (
            tx.use_exposure
            or uop.sq_forward_seq is not None
            or self._older_loads_done(uop)
        )
        if tx.obl_state is _OBL_DONE:
            # Case 1 ordering: B happened before C.
            if success:
                self._train_predictor(uop)
                if can_expose:
                    self._issue_exposure(uop)
                else:
                    self._issue_validation(uop)
            else:
                # Fail is now public (Section V-C2 Case 1): squash the
                # dependents that consumed the poisoned value and re-issue
                # the load as a regular, safe load.
                self.stats.bump("obl_fail_squashes")
                self._train_predictor(uop)
                self.stats.bump("sdo_squashed_uops", self._reissue_load(uop))
        else:
            # Case 2/3 orderings: C before B.
            if sq_hit:
                # Data will come (correctly) from the store queue at B.
                tx.validation_done = True
            elif can_expose and success:
                # Exposure condition: fill asynchronously, wait for B's data.
                self._issue_exposure(uop)
            else:
                # Issue the validation now (Section V-C2 Case 2 [C]); it
                # both checks consistency and supplies the value on fail.
                self._issue_validation(uop)
            # With the safe bit set, a success response already in the wait
            # buffer can be forwarded immediately (early forwarding).
            if (
                self.config.protection.early_forwarding
                and not uop.state.done
                and uop.sq_forward_seq is None
            ):
                first_success = response.first_success_cycle()
                if first_success is not None and first_success <= self.cycle:
                    self.stats.bump("obl_early_forwards")
                    self._obl_complete_success(uop)

    def _reissue_load(self, uop: DynInst) -> int:
        """Squash younger instructions and re-execute ``uop`` as a normal
        load (it is safe now, so STT imposes no further delay).  Returns the
        number of uops squashed."""
        discarded = self._squash_after(uop.seq, uop.pc + 1)
        tx = uop.tx
        tx.obl_state = _OBL_NONE
        tx.obl_response = None
        tx.predicted_level = None  # already trained at the safe point
        tx.pending_squash = False
        tx.needs_validation = False
        tx.use_exposure = False
        tx.validation_done = False
        tx.validation_complete_cycle = -1
        uop.state = _WAITING
        uop.issue_cycle = -1
        uop.complete_cycle = -1
        if uop.dest_preg is not None:
            self.prf.ready[uop.dest_preg] = False
        self._enter_iq(uop)
        return discarded

    def _issue_validation(self, uop: DynInst) -> None:
        response = self.hierarchy.validate(uop.addr, self.cycle)
        tx = uop.tx
        tx.validation_complete_cycle = response.complete_at
        tx.actual_level = tx.actual_level or response.level
        self._schedule(response.complete_at, "validation_done", uop)
        self.stats.bump("validations_issued")

    def _issue_exposure(self, uop: DynInst) -> None:
        tx = uop.tx
        if uop.sq_forward_seq is None and tx.obl_response is not None:
            self.hierarchy.expose(uop.addr, self.cycle)
        tx.validation_done = True
        self.stats.bump("exposures_issued")

    def _validation_done(self, uop: DynInst) -> None:
        """Event D: the validation's standard access completed."""
        tx = uop.tx
        tx.validation_done = True
        current_value = self.speculative_read(uop.addr, uop.seq)
        if not uop.state.done:
            # Case 3 ordering (D before B) or fail-waiting-for-validation:
            # the validation supplies the value.
            self._writeback(uop, current_value)
            self._train_predictor(uop, validated=True)
            return
        if current_value != uop.value or tx.invalidated_while_inflight:
            # Consistency violation detected by value comparison: squash
            # younger instructions and re-forward the fresh value.
            self.stats.bump("validation_mismatch_squashes")
            uop.value = current_value
            if uop.dest_preg is not None:
                # The register is ready (the load wrote it back and still owns
                # it), so no consumer waits on it: overwriting the value is
                # the whole update.
                self.prf.value[uop.dest_preg] = current_value
            tx.invalidated_while_inflight = False
            self.stats.bump(
                "sdo_squashed_uops", self._squash_after(uop.seq, uop.actual_next_pc)
            )

    def _train_predictor(self, uop: DynInst, validated: bool = False) -> None:
        if uop.sq_forward_seq is not None:
            return  # SQ-forwarded: the cache level is not ground truth
        tx = uop.tx
        if tx.predicted_level is None:
            return  # never predicted, or already trained once
        if tx.actual_level is not None:
            if self._on_load_outcome is not None:
                self._on_load_outcome(uop, tx.actual_level)
            tx.predicted_level = None

    def _fp_became_safe(self, uop: DynInst) -> None:
        tx = uop.tx
        if not (tx.fp_predicted_fast and tx.fp_actually_slow):
            return
        # The static "normal operands" prediction failed: squash the
        # dependents and re-execute on the (now untainted) slow path.
        self.stats.bump("fp_fail_squashes")
        self.stats.bump("sdo_squashed_uops", self._squash_after(uop.seq, uop.pc + 1))
        tx.fp_predicted_fast = False
        tx.fp_actually_slow = False
        uop.state = _WAITING
        uop.issue_cycle = -1
        uop.complete_cycle = -1
        if uop.dest_preg is not None:
            self.prf.ready[uop.dest_preg] = False
        self._enter_iq(uop)

    def _try_issue_fp_transmitter(self, uop: DynInst) -> bool:
        action = self.protection.fp_issue_decision(uop)
        if action is _FP_DELAY:
            self._n_fp_delays += 1
            uop.delayed_cycles += 1
            self._cycle_delayed_fps.append(uop)
            return False
        inst = uop.inst
        a, b = _operands(self.prf.value, uop)
        uop.result = inst.opcode.semantics(a, b, inst.imm)
        uop.issue_cycle = self.cycle
        uop.state = _ISSUED
        slow = self._fp_operands_slow(uop)
        latency = _FP_FAST_LATENCY[inst.opcode.mnemonic]
        if action is _FP_PREDICT_FAST:
            self._n_fp_predict_fast += 1
            tx = uop.tx
            tx.fp_predicted_fast = True
            tx.fp_actually_slow = slow
            if slow:
                self.stats.bump("fp_subnormal_mispredicts")
            self._protected_watch.append(uop)
        else:
            self._n_fp_normal += 1
            if slow:
                latency += FP_SLOW_EXTRA
        self._schedule(self.cycle + latency, "complete", uop)
        if self.observers:
            for observer in self.observers:
                observer.on_issue(uop, self.cycle)
        return True

    # ------------------------------------------------------------------ #
    # Squash
    # ------------------------------------------------------------------ #

    def _squash_after(self, seq: int, refetch_pc: int) -> int:
        """Squash every uop with ``uop.seq > seq`` and refetch.

        Returns the number of in-flight uops discarded (used to attribute
        squash cost to its cause in the Figure 7 breakdown).
        """
        squashed = self.rob.squash_younger_than(seq)
        if squashed:
            self.stats.bump("squashed_uops", len(squashed))
        # The oldest squashed branch prediction: every squashed ROB uop is
        # older than every squashed decode-queue uop, the ROB list runs
        # youngest first and the decode queue oldest first.
        oldest_snapshot = None
        on_squash = self._on_squash
        observers = self.observers
        cycle = self.cycle
        iq_pop = self.iq.pop
        rollback_dest = self.rename_map.rollback_dest
        free = self.prf.free
        for uop in squashed:
            uop.squashed = True
            iq_pop(uop, None)
            uop.state = _FETCHED
            if uop.dest_preg is not None:
                rollback_dest(uop.inst.rd, uop.old_dest_preg)
                free(uop.dest_preg)
            if uop.prediction is not None:
                oldest_snapshot = uop.prediction
            if on_squash is not None:
                on_squash(uop)
            if observers:
                for observer in observers:
                    observer.on_squash(uop, cycle)
        decode_queue = self._decode_queue
        if decode_queue and decode_queue[-1].seq > seq:
            # The decode queue is in fetch order: its squashed uops are its
            # tail.
            keep = len(decode_queue)
            while keep and decode_queue[keep - 1].seq > seq:
                keep -= 1
            for index in range(keep, len(decode_queue)):
                uop = decode_queue[index]
                uop.squashed = True
                if observers:
                    for observer in observers:
                        observer.on_squash(uop, cycle)
                if oldest_snapshot is None and uop.prediction is not None:
                    oldest_snapshot = uop.prediction
            while len(decode_queue) > keep:
                decode_queue.pop()
        if oldest_snapshot is not None:
            # Rewind speculative global history to before the oldest
            # squashed prediction.
            self.bpred.history = oldest_snapshot.history_snapshot
        if self._ready:
            self._ready = [u for u in self._ready if not u.squashed]
        self.lq.squash_younger_than(seq)
        self.sq.squash_younger_than(seq)
        self._protected_watch = [u for u in self._protected_watch if not u.squashed]
        self._pending_resolutions = [
            u for u in self._pending_resolutions if not u.squashed
        ]
        self.fetch_pc = refetch_pc
        self._fetch_halted = False
        self._fetch_resume_cycle = self.cycle + self.config.core.mispredict_penalty
        self.stats.bump("squashes")
        return len(squashed)

    # ------------------------------------------------------------------ #
    # Commit
    # ------------------------------------------------------------------ #

    def _commit(self) -> int:
        """Retire up to ``commit_width`` ready uops from the ROB head."""
        width = self.config.core.commit_width
        entries = self.rob._entries
        cycle = self.cycle
        free = self.prf.free
        observers = self.observers
        on_commit = self._on_commit
        golden = self._golden
        committed = 0
        while committed < width and entries:
            uop = entries[0]
            # Is the head ready to retire?
            if uop.is_branch:
                if not uop.resolved:
                    break
            elif not uop.state.done:
                break
            else:
                tx = uop.tx
                if tx is None:
                    pass
                elif uop.is_load:
                    if tx.pending_squash:
                        # A failed Obl-Ld cannot commit; it will squash at its
                        # safe point.  (It cannot be *correct* to commit a
                        # poisoned value.)
                        break
                    if tx.obl_state is not _OBL_NONE and not tx.safe:
                        # An Obl-Ld retires only after its address untaints
                        # (its success flag must be checked at the visibility
                        # point).
                        break
                    if tx.needs_validation and not tx.validation_done:
                        structural = self._structural_stalls
                        structural["validation_stall_cycles"] = (
                            structural.get("validation_stall_cycles", 0) + 1
                        )
                        self._cycle_validation_stall = True
                        break
                elif tx.fp_predicted_fast and not tx.safe:
                    # A fast-predicted FP transmitter retires only once the
                    # static "normal operands" prediction has been checked at
                    # untaint.
                    break
            # Retire it.
            entries.popleft()
            inst = uop.inst
            if uop.is_store:
                self.committed.write_mem(uop.addr, uop.store_value)
                self.hierarchy.store(uop.addr, cycle)
                self.sq.remove(uop)
            elif uop.is_load:
                self.lq.remove(uop)
            if uop.old_dest_preg is not None and inst.rd != 0:
                free(uop.old_dest_preg)
            elif uop.dest_preg is not None and inst.rd == 0:
                free(uop.dest_preg)
            uop.state = _RETIRED
            if observers:
                for observer in observers:
                    observer.on_commit(uop, cycle)
            if on_commit is not None:
                on_commit(uop)
            self._n_instructions += 1
            self._last_commit_cycle = cycle
            if golden is not None:
                self._check_against_golden(uop)
            if inst.opcode is _HALT:
                self.halted = True
            committed += 1
        return committed

    def _check_against_golden(self, uop: DynInst) -> None:
        golden_record = self._golden.step()
        if golden_record.pc != uop.pc or golden_record.opcode is not uop.inst.opcode:
            raise GoldenModelMismatch(
                f"commit stream diverged at #{golden_record.seq}: "
                f"golden pc={golden_record.pc} {golden_record.opcode}, "
                f"core pc={uop.pc} {uop.inst.opcode}"
            )
        core_result = uop.value if uop.is_load else uop.result
        if uop.is_store:
            core_result = None
        golden_result = golden_record.result
        if golden_result is not None and core_result != golden_result:
            if not (
                isinstance(golden_result, float)
                and isinstance(core_result, float)
                and golden_result != golden_result  # NaN == NaN case
                and core_result != core_result
            ):
                raise GoldenModelMismatch(
                    f"value diverged at pc={uop.pc} seq={uop.seq} "
                    f"({uop.inst.opcode}): core={core_result!r} "
                    f"golden={golden_result!r}"
                )
