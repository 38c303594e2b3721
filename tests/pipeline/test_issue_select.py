"""Wakeup-driven issue select must pick what an in-order IQ scan would.

The core keeps a ready list (the IQ uops whose issue operands are all
ready, in IQ-insertion order) and per-register consumer lists instead of
rescanning the IQ every cycle.  An observer checks at the end of every
cycle that both structures agree with a from-scratch scan of the IQ, over
every in-tree scheme and both attack models on the golden-fixture programs,
plus cells that assert a failed Obl-Ld and a failed Obl-FP did re-enter the
IQ tail.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.common.config import AttackModel, MachineConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import Core, CoreObserver
from repro.sim.configs import EVALUATED_CONFIGS, config_by_name, make_protection
from repro.workloads import make_fp_dense

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _load_refresh_module():
    spec = importlib.util.spec_from_file_location(
        "refresh_golden_stats", REPO_ROOT / "scripts" / "refresh_golden_stats.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REFRESH = _load_refresh_module()


def _issue_operands(uop):
    # A store issues (generates its address) once its base is ready.
    return (uop.src_pregs[1],) if uop.is_store else uop.src_pregs


class SelectInvariant(CoreObserver):
    """Asserts, every cycle, that the ready list and the consumer counts
    match a rescan of the IQ in insertion order."""

    def __init__(self, core: Core) -> None:
        self.core = core
        self.cycles = 0
        self.max_ready = 0

    def on_cycle_end(self, cycle: int) -> None:
        core = self.core
        ready = core.prf.ready
        iq = list(core.iq)
        stamps = [uop.iq_stamp for uop in iq]
        assert stamps == sorted(stamps), f"cycle {cycle}: IQ out of insertion order"
        expected = [uop for uop in iq if all(ready[p] for p in _issue_operands(uop))]
        assert core._ready == expected, f"cycle {cycle}: ready list != IQ scan"
        for uop in iq:
            waiting = [p for p in _issue_operands(uop) if not ready[p]]
            assert uop.waiting_on == len(waiting), f"cycle {cycle}: {uop!r}"
            for preg in set(waiting):
                registered = sum(1 for c in core._consumers[preg] if c is uop)
                assert registered == waiting.count(preg), f"cycle {cycle}: {uop!r}"
        self.cycles += 1
        self.max_ready = max(self.max_ready, len(expected))


def _run_checked(workload, config_name, model, machine=None):
    config = config_by_name(config_name)
    machine = (machine or MachineConfig()).with_protection(
        config.protection_config(model)
    )
    hierarchy = MemoryHierarchy(machine)
    core = Core(
        workload.program, machine, make_protection(config, model), hierarchy=hierarchy
    )
    checker = SelectInvariant(core)
    core.attach_observer(checker)
    if workload.warm_addresses:
        hierarchy.warm(workload.warm_addresses)
    result = core.run(max_cycles=workload.max_cycles)
    assert result.halted
    assert checker.cycles == result.cycles
    assert checker.max_ready > 1  # the ready list was exercised
    return result


#: The golden fixture's programs: the tiny kernel on the default machine,
#: and the pressure kernel on the starved machine (full IQ, preg stalls).
GOLDEN_PROGRAMS = {
    "golden": (REFRESH.golden_workload, lambda: None),
    "stress": (REFRESH.stress_workload, REFRESH.stress_machine),
}


@pytest.mark.parametrize("model", [AttackModel.SPECTRE, AttackModel.FUTURISTIC])
@pytest.mark.parametrize("config_name", [c.name for c in EVALUATED_CONFIGS])
@pytest.mark.parametrize("program", sorted(GOLDEN_PROGRAMS))
def test_select_matches_iq_scan_on_golden_programs(program, config_name, model):
    workload, machine = GOLDEN_PROGRAMS[program]
    _run_checked(workload(), config_name, model, machine=machine())


def test_select_after_obl_ld_fail_reissue():
    """Failed Obl-Lds re-enter the IQ tail (the golden stress cell)."""
    result = _run_checked(
        REFRESH.stress_workload(),
        "Static L1",
        AttackModel.SPECTRE,
        machine=REFRESH.stress_machine(),
    )
    assert result.stats["core.obl_fail_squashes"] == 35


def test_select_after_obl_fp_fail_reissue():
    """Fast-predicted FP ops that met subnormal operands re-enter the IQ
    tail once safe."""
    workload = make_fp_dense(
        "select_fp_fail", elems=256, iterations=40, subnormal_frac=0.1, seed=5
    )
    result = _run_checked(workload, "Hybrid", AttackModel.SPECTRE)
    assert result.stats["core.fp_fail_squashes"] == 3
