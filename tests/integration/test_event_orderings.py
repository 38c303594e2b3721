"""Integration: the three Obl-Ld event orderings of Section V-C2.

Events: A = Obl-Ld issues, B = wait buffer complete, C = load becomes safe,
D = validation completes.  The orderings A<B<C<D, A<C<B<D and A<C<D<B are
steered by controlling how fast the taint window closes relative to the
predicted-level lookup latency.
"""


from repro.common.config import AttackModel, MachineConfig, MemLevel
from repro.core import SdoProtection
from repro.core.predictors import StaticPredictor
from repro.isa import assemble
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import Core
from repro.pipeline.uop import OblState


def run_with_window(window_latency_level, predicted_level, table_resident_level):
    """One protected load whose taint window is controlled by a condition
    load at ``window_latency_level``; the Obl-Ld predicts
    ``predicted_level`` against data at ``table_resident_level``."""
    table_base = 1 << 20
    cond_addr = 1 << 24
    memory = {4096: 512, table_base + 512: 77, cond_addr: 0}
    source = f"""
        li r7, 1000000
        load r5, r0, {cond_addr}   ; condition load: sets the window length
        bge r5, r7, skip
        load r3, r0, 4096          ; access (clean addr): output tainted
        load r4, r3, {table_base}  ; tainted load -> Obl-Ld
        add r10, r10, r4
    skip:
        store r10, r0, 9000
        halt
    """
    program = assemble(source, memory)
    protection = SdoProtection(StaticPredictor(predicted_level), AttackModel.SPECTRE)
    hierarchy = MemoryHierarchy(MachineConfig())
    core = Core(program, protection=protection, hierarchy=hierarchy)
    # Place the condition line at the requested level.
    hierarchy.warm([cond_addr, 4096])
    if window_latency_level is MemLevel.DRAM:
        hierarchy.external_invalidate(cond_addr)
    elif window_latency_level is MemLevel.L3:
        hierarchy.l1.array.invalidate(hierarchy.line_of(cond_addr))
        hierarchy.l2.array.invalidate(hierarchy.line_of(cond_addr))
    elif window_latency_level is MemLevel.L2:
        hierarchy.l1.array.invalidate(hierarchy.line_of(cond_addr))
    # Place the table line.
    hierarchy.warm([table_base + 512])
    if table_resident_level >= MemLevel.L2:
        hierarchy.l1.array.invalidate(hierarchy.line_of(table_base + 512))
    if table_resident_level >= MemLevel.L3:
        hierarchy.l2.array.invalidate(hierarchy.line_of(table_base + 512))

    events = {}
    original_wait = core._obl_wait_buffer
    original_safe = core._on_became_safe

    def record_wait(uop):
        original_wait(uop)
        if uop.tx.obl_state is OblState.DONE and "B" not in events:
            events["B"] = core.cycle

    def record_safe(uop):
        if uop.is_load and "C" not in events:
            events["C"] = core.cycle
        original_safe(uop)

    core._obl_wait_buffer = record_wait
    core._on_became_safe = record_safe
    core.run(max_cycles=100_000)
    assert core.halted
    return core, events


class TestCase1_BBeforeC:
    def test_long_window_completes_before_safe(self):
        """DRAM-latency window, L1 lookup: B long before C; the result is
        forwarded tainted and checked at C."""
        core, events = run_with_window(MemLevel.DRAM, MemLevel.L1, MemLevel.L1)
        assert "B" in events and "C" in events
        assert events["B"] < events["C"]
        assert core.stats["obl_issued"] == 1

    def test_case1_fail_squashes_at_safe(self):
        """B<C with a wrong prediction: poison forwarded, squash at C."""
        core, events = run_with_window(MemLevel.DRAM, MemLevel.L1, MemLevel.L3)
        assert core.stats["obl_fail_squashes"] == 1
        assert core.stats["obl_fail_forwards"] == 1
        assert core.committed.read_mem(9000) == 77  # correct after re-issue


class TestCase23_CBeforeB:
    def test_short_window_goes_safe_before_completion(self):
        """L1-latency window with an L3-deep lookup: C before B."""
        core, events = run_with_window(MemLevel.L2, MemLevel.L3, MemLevel.L3)
        assert "C" in events
        # B may be observed after C (or not at all if validation won).
        if "B" in events:
            assert events["C"] <= events["B"]
        assert core.committed.read_mem(9000) == 77

    def test_fail_with_safe_first_uses_validation_value(self):
        """C<B and the Obl-Ld fails: no squash — the validation supplies the
        value (Section V-C2 Case 2: 'drops the Obl-Ld result')."""
        core, events = run_with_window(MemLevel.L2, MemLevel.L2, MemLevel.L3)
        assert core.stats["obl_fail_squashes"] == 0
        assert core.committed.read_mem(9000) == 77


class TestEarlyForwarding:
    def test_early_forward_happens_when_safe_and_hit_known(self):
        """Safe load, deep prediction, shallow hit: forwarded before the
        deepest response (the Section V-C2 optimization)."""
        core, _ = run_with_window(MemLevel.L2, MemLevel.L3, MemLevel.L1)
        assert core.stats["obl_early_forwards"] >= 1
        assert core.committed.read_mem(9000) == 77
