"""Tests for the analysis instruments (timeline, taint window, MLP) and the
single observation interface they share."""

import ast
import importlib.util
from pathlib import Path

import pytest

from repro.analysis import (
    CycleTracer,
    MlpProbe,
    TaintWindowProbe,
    average_latency,
    render_timeline,
)
from repro.common.config import AttackModel, MachineConfig, MemLevel, PredictorKind
from repro.core import SdoProtection, make_predictor
from repro.core.predictors import StaticPredictor
from repro.isa import assemble
from repro.pipeline.core import Core
from repro.pipeline.protection import ProtectionScheme
from repro.sim.configs import config_by_name, make_protection
from repro.stt import SttProtection

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

SOURCE = """
    li r1, 0
    li r2, 12
    li r6, 64
    li r7, 1000000
loop:
    mul r8, r1, r6
    load r5, r8, 1048576     ; cold loads -> misses
    bge r5, r7, skip
    load r3, r8, 4096
    and r9, r3, r6
    load r4, r9, 8192        ; dependent, tainted under the bge
skip:
    addi r1, r1, 1
    blt r1, r2, loop
    store r4, r0, 9000
    halt
"""

#: Configs the "observation changes nothing" checks cover.
OBSERVED_CONFIGS = ("Unsafe", "STT{ld+fp}", "Hybrid")


def fresh_core(protection=None):
    return Core(assemble(SOURCE, {}), protection=protection)


def configured_core(config_name):
    config = config_by_name(config_name)
    machine = MachineConfig(protection=config.protection_config(AttackModel.SPECTRE))
    return Core(
        assemble(SOURCE, {}), machine, make_protection(config, AttackModel.SPECTRE)
    )


def traced_run(core, **tracer_kwargs):
    tracer = CycleTracer(**tracer_kwargs).attach(core)
    core.run()
    tracer.close()
    return tracer.records()


@pytest.fixture(scope="module")
def observed_runs():
    """Each config run twice: plain, and with all three instruments attached
    at once.  Maps config name -> (plain result, observed result, tracer,
    taint probe, MLP probe)."""
    runs = {}
    for name in OBSERVED_CONFIGS:
        plain = configured_core(name).run()
        core = configured_core(name)
        tracer = CycleTracer().attach(core)
        windows = TaintWindowProbe(core)
        mlp = MlpProbe(core)
        observed = core.run()
        tracer.close()
        runs[name] = (plain, observed, tracer, windows, mlp)
    return runs


def assert_same_results(observed_runs):
    for name, (plain, observed, *_) in observed_runs.items():
        assert observed.cycles == plain.cycles, name
        assert observed.instructions == plain.instructions, name
        assert observed.stats == plain.stats, name


def load_anatomy_example():
    path = REPO_ROOT / "examples" / "anatomy_of_overhead.py"
    spec = importlib.util.spec_from_file_location("anatomy_of_overhead", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPipelineTimeline:
    def test_records_all_stages(self):
        core = fresh_core()
        records = traced_run(core)
        retired = sorted((r for r in records if r.retired), key=lambda r: r.seq)
        assert len(retired) == core.stats["instructions"]
        first = retired[0]
        assert 0 <= first.fetch <= first.dispatch <= first.commit

    def test_squashed_uops_marked(self):
        core = fresh_core()
        records = traced_run(core)
        if core.stats["squashes"] > 0:
            assert any(r.squash >= 0 for r in records)

    def test_render_produces_diagram(self):
        diagram = render_timeline(traced_run(fresh_core()), count=10)
        assert "R" in diagram
        assert "F" in diagram
        assert "cycles" in diagram

    def test_observation_does_not_change_timing(self, observed_runs):
        assert_same_results(observed_runs)
        for *_, tracer, _windows, _mlp in observed_runs.values():
            assert any(r.retired for r in tracer.records())

    def test_average_latency_positive(self):
        assert average_latency(traced_run(fresh_core())) > 0

    def test_capacity_bound(self):
        records = traced_run(fresh_core(), buffer_capacity=5)
        assert len(records) <= 5

    def test_fetch_cycle_precedes_dispatch(self):
        """Records are born at fetch, not rename: the front-end latency is
        visible, and every retired record's milestones are ordered."""
        retired = [r for r in traced_run(fresh_core()) if r.retired]
        assert any(r.fetch < r.dispatch for r in retired)
        for r in retired:
            issue = r.issue if r.issue >= 0 else r.dispatch  # IQ-bypassing uops
            assert r.fetch <= r.dispatch <= issue <= r.complete <= r.commit, r


class TestTaintWindowProbe:
    def test_records_windows_under_stt(self):
        core = fresh_core(SttProtection(AttackModel.SPECTRE))
        probe = TaintWindowProbe(core)
        core.run()
        assert probe.windows.count > 0
        assert probe.mean_window >= 0

    def test_no_windows_without_protection_delays(self):
        """Unsafe: loads are never watched, so no safe events fire."""
        core = fresh_core()
        probe = TaintWindowProbe(core)
        core.run()
        assert probe.windows.count == 0

    def test_observation_does_not_change_timing(self, observed_runs):
        assert_same_results(observed_runs)
        windows = observed_runs["STT{ld+fp}"][3]
        assert windows.windows.count > 0


class TestMlpProbe:
    def test_detects_overlapped_misses(self):
        core = fresh_core()
        probe = MlpProbe(core)
        core.run()
        assert probe.peak_mlp >= 1
        assert probe.mean_mlp >= 1.0

    def test_sdo_mlp_at_least_stt(self):
        """On this dependent-miss kernel SDO should sustain at least as
        much miss overlap as STT."""
        stt_core = fresh_core(SttProtection(AttackModel.SPECTRE))
        stt_probe = MlpProbe(stt_core)
        stt_core.run()
        sdo_core = fresh_core(
            SdoProtection(StaticPredictor(MemLevel.L2), AttackModel.SPECTRE)
        )
        sdo_probe = MlpProbe(sdo_core)
        sdo_core.run()
        assert sdo_probe.peak_mlp >= stt_probe.peak_mlp * 0.5

    def test_observation_does_not_change_timing(self, observed_runs):
        assert_same_results(observed_runs)
        mlp = observed_runs["Unsafe"][4]
        assert mlp.peak_mlp >= 1

    @pytest.mark.parametrize("hybrid", [False, True], ids=["Unsafe", "Hybrid"])
    def test_squashed_loads_leave_flight(self, hybrid):
        """A squashed load never writes back; it must still stop counting
        as in flight, so MLP can never exceed the load queue."""
        anatomy = load_anatomy_example()
        protection = None
        if hybrid:
            protection = SdoProtection(
                make_predictor(PredictorKind.HYBRID), AttackModel.SPECTRE,
                fp_transmitters=True,
            )
        core = anatomy.build(protection)
        probe = MlpProbe(core)
        core.run()
        in_rob = {uop.seq for uop in core.rob._entries}
        assert set(probe.in_flight) <= in_rob
        assert probe.peak_mlp <= core.config.core.lq_entries


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _patched_methods(tree, method_names):
    """Yield ``(lineno, target)`` for each ``obj.m = f`` or ``setattr(obj,
    "m", f)`` where ``m`` is in ``method_names`` and ``f`` is a function
    defined inside the enclosing function (or a lambda): the shape of an
    instance monkeypatch."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local = {
            node.name
            for node in ast.walk(func)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func
        }

        def is_local_function(value):
            return isinstance(value, ast.Lambda) or (
                isinstance(value, ast.Name) and value.id in local
            )

        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and is_local_function(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and target.attr in method_names:
                        yield node.lineno, ast.unparse(target)
            elif (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) == "setattr"
                and len(node.args) == 3
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in method_names
                and is_local_function(node.args[2])
            ):
                yield node.lineno, ast.unparse(node)


def test_nothing_patches_core_or_protection_instances():
    """Observation goes through ``Core.attach_observer`` only: no code
    replaces a method of a core or protection scheme with a local wrapper."""
    # Importing repro.sim.configs (above) loaded every scheme subclass.
    method_names = {
        name
        for cls in (Core, *_subclasses(ProtectionScheme))
        for name, value in vars(cls).items()
        if callable(value)
    }
    offenders = []
    for root in (REPO_ROOT / "src" / "repro", REPO_ROOT / "examples"):
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for lineno, target in _patched_methods(tree, method_names):
                offenders.append(f"{path.relative_to(REPO_ROOT)}:{lineno}: {target}")
    assert offenders == []
