"""The core's hot-path mechanisms: event buckets, delayed-load retries and
lifecycle-hook binding.

* Events fire in cycle order and, within a cycle, in scheduling order; the
  per-cycle buckets must reproduce a ``(cycle, tiebreak)`` heap exactly,
  including events scheduled for the current or a past cycle (clamped to
  the next one).
* A delayed load's retry — one that makes a fresh location prediction after
  a fail squash re-executed the load, and one waiting behind an older store
  whose address is unknown — must leave the skipping loop bit-identical to
  the naive one.
* A lifecycle hook the scheme defines sees every call; one it inherits as
  a no-op from ``ProtectionScheme`` is never called.
"""

import heapq

from hypothesis import given, seed, settings, strategies as st

from repro.common.config import AttackModel, MemLevel
from repro.core.predictors import StaticPredictor
from repro.core.protection import SdoProtection
from repro.isa import Instruction, Opcode, assemble
from repro.pipeline.core import Core, CoreObserver
from repro.pipeline.protection import (
    ISSUE_DELAY,
    ISSUE_NORMAL,
    LoadIssueAction,
    ProtectionScheme,
    UnsafeProtection,
)
from repro.pipeline.uop import DynInst
from repro.stt.protection import SttProtection
from repro.baselines.specbox import SpecBoxProtection

HALT_ONLY = assemble("halt")
KINDS = ("complete", "branch_resolve", "obl_resp", "validation_done")

#: A loop whose tainted loads miss in the L1: under a static-L1 SDO
#: predictor each one issues obliviously, fails, and is re-executed after a
#: fail squash.  The store's address comes from a cold load, so the loads
#: after it wait for it in disambiguation.
KERNEL = """
    li r1, 0
    li r2, 16
    li r6, 64
    li r7, 1000000
loop:
    mul r8, r1, r6
    load r5, r8, 65536      ; cold condition load: the branch stays open
    load r11, r5, 262144    ; cold, issued once r5 arrives: still in flight
                            ; when the branch resolves
    bge r5, r7, skip
    load r3, r8, 4096       ; speculative access (clean address)
    load r4, r3, 8192       ; tainted address: Obl-Ld at L1, fails
    load r9, r8, 131072     ; cold: its value is the store's address
    and r9, r9, r6
    store r4, r9, 12288     ; address unknown until r9 arrives
    load r10, r3, 16384     ; behind the store: waits in disambiguation
skip:
    addi r1, r1, 1
    blt r1, r2, loop
    halt
"""
#: A new line for every tainted load (so each one misses in the L1) and for
#: every load of r11.
MEMORY = {
    **{4096 + 64 * i: 192 * (i + 1) for i in range(16)},
    **{65536 + 64 * i: 128 * (i + 1) for i in range(16)},
}


class _Recorder(CoreObserver):
    def __init__(self, fired):
        self.fired = fired

    def on_complete(self, uop, cycle):
        self.fired.append(("complete", uop.seq))


def _bare_core():
    """A core whose event queue is driven by hand: fetch halted, and every
    event kind but ``complete`` recorded instead of handled."""
    core = Core(HALT_ONLY, check_golden=False)
    core._fetch_halted = True
    fired: list[tuple[str, int]] = []
    core.attach_observer(_Recorder(fired))
    for kind, attr in (
        ("branch_resolve", "_resolve_branch"),
        ("obl_resp", "_obl_wait_buffer"),
        ("validation_done", "_validation_done"),
    ):
        setattr(core, attr, lambda uop, kind=kind: fired.append((kind, uop.seq)))
    return core, fired


@seed(2024)
@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.tuples(st.integers(-3, 12), st.sampled_from(KINDS)), max_size=6),
            st.integers(0, 7),
        ),
        max_size=30,
    )
)
def test_event_buckets_match_heap_order(script):
    core, fired = _bare_core()
    reference: list[tuple[int, int, str, int]] = []
    expected: list[tuple[str, int]] = []
    seq = 0
    for batch, advance in script:
        for offset, kind in batch:
            uop = DynInst(seq, 0, Instruction(Opcode.ADD, rd=None, rs1=1, rs2=2))
            core._schedule(core.cycle + offset, kind, uop)
            heapq.heappush(reference, (max(core.cycle + offset, core.cycle + 1), seq, kind, seq))
            seq += 1
        assert core._next_wake() == (reference[0][0] if reference else None)
        core.cycle += advance
        core._process_events()
        while reference and reference[0][0] <= core.cycle:
            _, _, kind, uop_seq = heapq.heappop(reference)
            expected.append((kind, uop_seq))
        assert fired == expected
    assert core._next_wake() == (reference[0][0] if reference else None)


class RepredictingSdo(SdoProtection):
    """STT+SDO with a static L1 prediction, plus one rule for a load that a
    fail squash re-executed (the core cleared its prediction): predict it
    afresh, and hold it until it is the oldest uop in flight.  The retry
    that makes the fresh prediction is not an idle cycle; the waiting
    retries after it are, and fast-forward replays them."""

    def __init__(self):
        super().__init__(StaticPredictor(MemLevel.L1))
        self.oblivious: set[DynInst] = set()
        self.fresh_then_delayed = 0

    def load_issue_decision(self, uop):
        if uop in self.oblivious:
            fresh = uop.tx.predicted_level is None
            if fresh:
                self._predict_for(uop)
            if self.core.rob.head is not uop:
                self.fresh_then_delayed += fresh
                return ISSUE_DELAY
            return ISSUE_NORMAL
        decision = super().load_issue_decision(uop)
        if decision.action is LoadIssueAction.OBLIVIOUS:
            self.oblivious.add(uop)
        return decision


def _run_both(make_protection):
    results = []
    for fast_forward in (False, True):
        protection = make_protection()
        core = Core(assemble(KERNEL, MEMORY), protection=protection)
        core.fast_forward = fast_forward
        results.append((core.run(), core, protection))
    return results


def test_fresh_prediction_after_reissue_skips_identically():
    (naive, _, naive_scheme), (fast, core, scheme) = _run_both(RepredictingSdo)
    assert scheme.fresh_then_delayed > 0
    assert fast.stats["core.obl_fail_squashes"] > 0
    assert core.ff_skipped_cycles > 0
    assert fast.halted
    assert (fast.cycles, fast.instructions) == (naive.cycles, naive.instructions)
    assert fast.stats == naive.stats
    assert scheme.fresh_then_delayed == naive_scheme.fresh_then_delayed


def test_load_behind_unknown_store_address_skips_identically():
    blocked = []

    def make_protection():
        return SttProtection(AttackModel.SPECTRE)

    (naive, _, _), (fast, core, _) = _run_both(make_protection)
    assert fast.halted
    assert (fast.cycles, fast.instructions) == (naive.cycles, naive.instructions)
    assert fast.stats == naive.stats
    assert fast.stats["core.load_delay_cycles"] > 0
    assert core.ff_skipped_cycles > 0
    # The scenario happened: some load attempt found an older store whose
    # address was still unknown.
    probe = Core(assemble(KERNEL, MEMORY), protection=make_protection())
    scan = probe.sq.load_scan

    def recording_scan(addr, seq):
        known, forward = scan(addr, seq)
        blocked.append(not known)
        return known, forward

    probe.sq.load_scan = recording_scan
    assert probe.run() == fast
    assert any(blocked)


class CountingSpecBox(SpecBoxProtection):
    def __init__(self):
        super().__init__()
        self.commits = 0
        self.squashes = 0

    def on_commit(self, uop):
        self.commits += 1
        super().on_commit(uop)

    def on_squash(self, uop):
        self.squashes += 1
        super().on_squash(uop)


def test_defined_hooks_see_every_call():
    protection = CountingSpecBox()
    result = Core(assemble(KERNEL, MEMORY), protection=protection).run()
    assert result.halted
    assert protection.commits == result.instructions
    assert protection.squashes == result.stats["core.squashed_uops"] > 0
    assert result.stats["stt.spec_commits"] > 0


def test_inherited_noop_hooks_are_never_called(monkeypatch):
    calls = []
    monkeypatch.setattr(ProtectionScheme, "on_commit", lambda self, uop: calls.append(uop))
    for protection in (UnsafeProtection(), SttProtection()):
        result = Core(assemble(KERNEL, MEMORY), protection=protection).run()
        assert result.halted and result.instructions > 0
    assert calls == []
