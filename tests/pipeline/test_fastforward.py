"""Fast-forward equivalence: cycle skipping must be invisible in results.

The core's event-driven fast-forward (`Core._fast_forward`) jumps over
provably idle cycles, accruing the per-cycle accounting in closed form.
These tests pin the tentpole claim: the skipping loop is **bit-identical**
to the naive one-step-per-cycle loop — same cycles, same instructions, and
the same complete stats dict (every ``core.stall.*`` and ``core.occ.*`` key
included) — across protection schemes, attack models and workload shapes,
and against the committed golden fixture.
"""

import json
from pathlib import Path

import pytest

from repro.common.config import AttackModel, MachineConfig
from repro.pipeline.core import Core
from repro.sim.configs import config_by_name, make_protection
from repro.workloads import (
    make_indirect_stream,
    make_mixed_kernel,
    make_pointer_chase,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
GOLDEN_FIXTURE = REPO_ROOT / "tests" / "golden" / "golden_stats.json"

#: Shapes chosen to exercise different idle patterns: a mixed kernel
#: (branches + FP + loads), a cold pointer chase (serial DRAM misses — the
#: dominant fast-forward case), and a cold indirect stream (tainted loads,
#: STT delay windows).
WORKLOADS = {
    "mixed": make_mixed_kernel(
        "ff_mixed", table_words=4096, iterations=60, seed=7
    ),
    "pointer_chase": make_pointer_chase(
        "ff_chase", nodes=2048, iterations=120, seed=8, warm_table=False
    ),
    "indirect_dram": make_indirect_stream(
        "ff_ind", table_words=262144, iterations=80, seed=9, warm_table=False
    ),
}
CONFIG_NAMES = (
    "Unsafe", "STT{ld}", "STT{ld+fp}", "Hybrid", "Perfect",
    "SpecBox", "DelayOnMiss", "Fence",
)


def _run(workload, config_name, attack_model, fast_forward):
    config = config_by_name(config_name)
    machine = MachineConfig(protection=config.protection_config(attack_model))
    core = Core(
        workload.program, machine, make_protection(config, attack_model)
    )
    core.fast_forward = fast_forward
    return core.run(), core


@pytest.mark.parametrize("model", [AttackModel.SPECTRE, AttackModel.FUTURISTIC])
@pytest.mark.parametrize("config_name", CONFIG_NAMES)
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_fast_forward_is_bit_identical(workload_name, config_name, model):
    workload = WORKLOADS[workload_name]
    naive, _ = _run(workload, config_name, model, fast_forward=False)
    fast, core = _run(workload, config_name, model, fast_forward=True)
    assert fast.cycles == naive.cycles
    assert fast.instructions == naive.instructions
    assert fast.stats == naive.stats
    # Spell out the per-cycle-accounting families the accrual replays in
    # closed form, so a drift there fails with the offending key's name.
    stall_keys = [k for k in naive.stats if k.startswith("core.stall.")]
    occ_keys = [k for k in naive.stats if k.startswith("core.occ.")]
    assert stall_keys and occ_keys
    for key in (*stall_keys, *occ_keys):
        assert fast.stats[key] == naive.stats[key], key
    # The naive core never skipped; telemetry is the only allowed difference.
    assert core.ff_skipped_cycles + core.ff_windows >= 0


def test_fast_forward_actually_skips_on_dram_bound_work():
    """Guard against the predicate silently never firing (which would keep
    the equivalence tests green while losing the entire speedup)."""
    _, core = _run(
        WORKLOADS["pointer_chase"], "STT{ld}", AttackModel.SPECTRE, True
    )
    assert core.ff_windows > 0
    assert core.ff_skipped_cycles > core.cycle // 2, (
        f"only {core.ff_skipped_cycles} of {core.cycle} cycles skipped on a "
        "DRAM-latency-bound workload"
    )


def test_stall_attribution_invariant_holds_with_skipping():
    """`cycles == commit_active_cycles + sum(core.stall.*)` must survive the
    closed-form accrual exactly."""
    for config_name in ("Unsafe", "STT{ld}", "Hybrid"):
        result, _ = _run(
            WORKLOADS["indirect_dram"], config_name, AttackModel.SPECTRE, True
        )
        stalls = sum(
            v for k, v in result.stats.items() if k.startswith("core.stall.")
        )
        assert result.cycles == result.stats["core.commit_active_cycles"] + stalls


def test_tracer_disables_skipping():
    """Observed runs must see every cycle: attaching a CycleTracer — or any
    observer at all, even one that ignores every event — forces the naive
    loop (documented in the README)."""
    from repro.analysis.trace import CycleTracer
    from repro.pipeline.core import CoreObserver

    workload = WORKLOADS["pointer_chase"]
    config = config_by_name("STT{ld}")
    machine = MachineConfig(
        protection=config.protection_config(AttackModel.SPECTRE)
    )
    for observer in (CycleTracer(), CoreObserver()):
        core = Core(
            workload.program, machine, make_protection(config, AttackModel.SPECTRE)
        )
        core.attach_observer(observer)
        core.run()
        assert core.ff_windows == 0
        assert core.ff_skipped_cycles == 0


def test_naive_loop_matches_golden_fixture(monkeypatch):
    """The committed fixture pins the default (skipping) path; running the
    same cells with skipping force-disabled must reproduce it bit for bit,
    closing the loop fixture == fast-forward == naive."""
    import importlib.util

    from repro.common.config import AttackModel as Model
    from repro.sim.api import RunRequest, execute

    spec = importlib.util.spec_from_file_location(
        "refresh_golden_stats", REPO_ROOT / "scripts" / "refresh_golden_stats.py"
    )
    refresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(refresh)

    fixture_cells = json.loads(GOLDEN_FIXTURE.read_text())["cells"]
    monkeypatch.setattr(Core, "fast_forward", False)
    workload = make_indirect_stream(
        "golden_stats_kernel", table_words=1024, iterations=80, seed=42
    )
    for cell, expected in fixture_cells.items():
        if cell == refresh.STRESS_CELL_KEY:
            request = RunRequest(
                workload=refresh.stress_workload(),
                config=config_by_name("Static L1"),
                attack_model=Model.SPECTRE,
                machine=refresh.stress_machine(),
            )
        else:
            config_name, model = cell.split("/")
            request = RunRequest(
                workload=workload,
                config=config_by_name(config_name),
                attack_model=Model(model),
            )
        assert execute(request).to_dict() == expected, cell
