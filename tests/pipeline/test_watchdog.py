"""Tests for the core's forward-progress watchdog and termination reasons."""

import json

import pytest

from repro.common.config import MachineConfig
from repro.isa import Instruction, Opcode
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline import Core, DeadlockError, SimulationHang, UnsafeProtection
from repro.pipeline.protection import IssueDecision, LoadIssueAction
from repro.pipeline.uop import DynInst
from repro.workloads import make_indirect_stream

WORKLOAD = make_indirect_stream("watchdog_unit", table_words=128, iterations=20, seed=7)


class WedgedProtection(UnsafeProtection):
    """Delays every load forever: the canonical way to wedge a core."""

    supports_fast_forward = False

    def load_issue_decision(self, uop):
        return IssueDecision(LoadIssueAction.DELAY)


def make_core(protection=None):
    machine = MachineConfig()
    return Core(
        WORKLOAD.program,
        config=machine,
        protection=protection or UnsafeProtection(),
        hierarchy=MemoryHierarchy(machine),
    )


class TestWatchdog:
    def test_wedged_core_trips_within_the_window(self):
        core = make_core(WedgedProtection())
        window = 2_000
        with pytest.raises(SimulationHang) as excinfo:
            core.run(max_instructions=1_000, hang_window=window)
        diag = excinfo.value.diagnostics
        # The watchdog must fire as soon as the window is exceeded, not
        # after some unrelated budget runs out.
        assert diag.hang_window == window
        assert diag.cycle - diag.last_commit_cycle > window
        assert diag.cycle <= diag.last_commit_cycle + window + 2

    def test_snapshot_names_the_blocked_rob_head(self):
        core = make_core(WedgedProtection())
        with pytest.raises(SimulationHang) as excinfo:
            core.run(max_instructions=1_000, hang_window=2_000)
        diag = excinfo.value.diagnostics
        assert diag.rob_head is not None and "load" in diag.rob_head
        assert diag.rob_head_state["opcode"] == "load"
        assert diag.rob_head_state["delayed_cycles"] > 2_000
        assert diag.stall_reason == "stt_delay"
        assert diag.protection == "WedgedProtection"
        # The exception message is the human-facing snapshot.
        message = str(excinfo.value)
        assert "ROB head" in message and "load" in message
        assert "stt_delay" in message

    def test_snapshot_names_the_head_event_and_pending_count(self):
        """The earliest pending event, first in scheduling order within its
        cycle, and the number of events pending across every cycle."""
        core = make_core()
        add = Instruction(Opcode.ADD, rd=None, rs1=1, rs2=2)
        uops = [DynInst(seq, 0, add) for seq in range(4)]
        core._schedule(7, "complete", uops[0])
        core._schedule(5, "branch_resolve", uops[1])
        core._schedule(5, "obl_resp", uops[2])
        core._schedule(9, "validation_done", uops[3])
        diag = core._hang_diagnostics(100)
        assert diag.event_heap_head == f"branch_resolve@5 for {uops[1]!r}"
        assert diag.event_heap_size == 4
        assert "event heap head branch_resolve@5" in str(diag)

    def test_simulation_hang_is_a_deadlock_error(self):
        """Existing callers catch DeadlockError; the richer exception must
        still land in those handlers."""
        assert issubclass(SimulationHang, DeadlockError)

    def test_diagnostics_are_json_ready(self):
        core = make_core(WedgedProtection())
        with pytest.raises(SimulationHang) as excinfo:
            core.run(max_instructions=1_000, hang_window=2_000)
        payload = excinfo.value.diagnostics.as_dict()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["stall_reason"] == "stt_delay"
        assert round_tripped["hang_window"] == 2_000
        assert round_tripped["rob_head_state"]["opcode"] == "load"

    def test_invalid_hang_window_rejected(self):
        core = make_core()
        with pytest.raises(ValueError):
            core.run(hang_window=0)
        with pytest.raises(ValueError):
            core.run(hang_window=-5)

    def test_healthy_run_never_trips(self):
        result = make_core().run(max_instructions=10_000, hang_window=2_000)
        assert result.halted


class TestTermination:
    def test_clean_halt(self):
        result = make_core().run()
        assert result.termination == "halted"
        assert result.halted

    def test_max_cycles_budget_is_not_a_hang(self):
        """Running out of cycle budget is an explicit, distinct outcome —
        not an exception, and not silently identical to a clean halt."""
        result = make_core().run(max_cycles=40)
        assert result.termination == "max_cycles"
        assert not result.halted
        assert result.cycles <= 40

    def test_max_instructions_budget(self):
        result = make_core().run(max_instructions=5)
        assert result.termination == "max_instructions"
        assert not result.halted
        assert result.instructions >= 5
