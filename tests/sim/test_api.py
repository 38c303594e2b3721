"""Tests for the Session/RunRequest API and the removed legacy keywords."""

import dataclasses
import gc
from pathlib import Path

import pytest

from repro.common.config import AttackModel, MachineConfig
from repro.memory.cache import CacheArray
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import Core
from repro.sim.api import (
    DEFAULT_MAX_INSTRUCTIONS,
    RunMetrics,
    RunRequest,
    Session,
    execute,
)
from repro.sim.configs import config_by_name
from repro.sim.policies import CachePolicy, ExecutionPolicy, JournalPolicy
from repro.workloads import make_indirect_stream

WORKLOAD = make_indirect_stream("api_unit", table_words=512, iterations=60, seed=4)
NO_CACHE = CachePolicy(enabled=False)


class TestRunRequest:
    def test_defaults(self):
        request = RunRequest(WORKLOAD, config_by_name("Unsafe"))
        assert request.attack_model is AttackModel.SPECTRE
        assert request.machine == MachineConfig()
        assert request.check_golden is True
        assert request.max_instructions == DEFAULT_MAX_INSTRUCTIONS

    def test_frozen(self):
        request = RunRequest(WORKLOAD, config_by_name("Unsafe"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.check_golden = False

    def test_equal_requests_compare_equal(self):
        a = RunRequest(WORKLOAD, config_by_name("Hybrid"))
        b = RunRequest(WORKLOAD, config_by_name("Hybrid"))
        assert a == b


class TestExecute:
    def test_finished_machine_is_freed_by_refcount(self):
        """``execute`` leaves no reference cycle through the machine: with
        the cyclic collector off, whatever it would still have to collect
        holds no core, hierarchy or cache array."""
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for name in ("STT{ld+fp}", "Hybrid"):
                execute(RunRequest(WORKLOAD, config_by_name(name)))
            gc.collect()
            leaked = [
                type(obj).__name__
                for obj in gc.garbage
                if isinstance(obj, (Core, MemoryHierarchy, CacheArray))
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
        assert leaked == []

    def test_is_deterministic(self):
        request = RunRequest(WORKLOAD, config_by_name("Hybrid"))
        assert execute(request) == execute(request)

    def test_preserves_ablation_knobs(self):
        """A machine carrying early_forwarding=False must keep it even after
        the config-derived protection swap (the Section V-C2 ablation)."""
        base = MachineConfig()
        knobbed = base.with_protection(
            dataclasses.replace(base.protection, early_forwarding=False)
        )
        request = RunRequest(WORKLOAD, config_by_name("Hybrid"), machine=knobbed)
        default = execute(RunRequest(WORKLOAD, config_by_name("Hybrid")))
        ablated = execute(request)
        # Disabling early forwarding can only slow things down.
        assert ablated.cycles >= default.cycles


class TestRunMetrics:
    def make(self, model=AttackModel.SPECTRE, cycles=1000, instructions=500,
             config="Hybrid"):
        return RunMetrics(
            workload="w", config=config, attack_model=model,
            cycles=cycles, instructions=instructions,
            stats={"stt.sdo.predictions": 4.0, "stt.sdo.precise": 3.0},
        )

    def test_normalized_to(self):
        base = self.make(cycles=1000, config="Unsafe")
        other = self.make(cycles=1500)
        assert other.normalized_to(base) == pytest.approx(1.5)

    def test_normalized_to_rejects_cross_model(self):
        spectre = self.make(model=AttackModel.SPECTRE)
        futuristic = self.make(model=AttackModel.FUTURISTIC, config="Unsafe")
        with pytest.raises(ValueError, match="cannot normalize across attack models"):
            spectre.normalized_to(futuristic)

    def test_dict_roundtrip(self):
        metrics = self.make()
        payload = metrics.to_dict()
        assert payload["attack_model"] == "spectre"
        import json

        assert RunMetrics.from_dict(json.loads(json.dumps(payload))) == metrics


class TestSession:
    def test_run_accepts_string_names(self):
        session = Session(cache=NO_CACHE)
        metrics = session.run(WORKLOAD, "Unsafe", "spectre")
        assert metrics.config == "Unsafe"
        assert metrics.attack_model is AttackModel.SPECTRE

    def test_run_accepts_prebuilt_request(self):
        session = Session(cache=NO_CACHE)
        request = session.request(WORKLOAD, "Unsafe")
        assert session.run(request) == session.run(WORKLOAD, "Unsafe")

    def test_run_requires_config_without_request(self):
        session = Session(cache=NO_CACHE)
        with pytest.raises(TypeError):
            session.run(WORKLOAD)

    def test_unknown_config_suggests_a_name(self):
        session = Session(cache=NO_CACHE)
        with pytest.raises(KeyError, match="did you mean 'Hybrid'"):
            session.run(WORKLOAD, "hybird")

    def test_session_defaults_flow_into_requests(self):
        session = Session(check_golden=False, max_instructions=1234, cache=NO_CACHE)
        request = session.request(WORKLOAD, "Unsafe")
        assert request.check_golden is False
        assert request.max_instructions == 1234
        # explicit per-request values win over session defaults
        override = session.request(WORKLOAD, "Unsafe", check_golden=True)
        assert override.check_golden is True


class TestSessionLifecycle:
    def test_close_is_idempotent(self):
        session = Session(cache=NO_CACHE)
        session.close()
        session.close()  # second close is a no-op, not an error
        assert session.closed

    def test_context_manager_closes(self):
        with Session(cache=NO_CACHE) as session:
            session.run(WORKLOAD, "Unsafe")
        assert session.closed

    def test_closed_session_refuses_runs(self):
        session = Session(cache=NO_CACHE)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.run(WORKLOAD, "Unsafe")


class TestLegacyKwargShims:
    """The pre-policy Session keywords are gone: each one is a TypeError,
    never a silent fallback (``cache=None`` must not mean "cache")."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jobs": 2},
            {"timeout": 9.0},
            {"retries": 3},
            {"cache": False},
            {"cache": None},
            {"resume": True},
            {"journal": Path("journal.jsonl")},
            {"journal": "journal.jsonl"},
        ],
        ids=[
            "jobs", "timeout", "retries", "cache-False", "cache-None",
            "resume", "journal-Path", "journal-str",
        ],
    )
    def test_legacy_keyword_rejected(self, kwargs):
        with pytest.raises(TypeError):
            Session(**{"cache": NO_CACHE, **kwargs})

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            Session(bogus=1)

class TestPolicySession:
    def test_policies_configure_engine(self, tmp_path):
        session = Session(
            execution=ExecutionPolicy(jobs=2, timeout=30.0, retries=1),
            cache=CachePolicy(cache_dir=tmp_path / "cache"),
            journal=JournalPolicy(path=tmp_path / "journal.jsonl"),
        )
        assert session.engine.jobs == 2
        assert session.engine.timeout == 30.0
        assert session.engine.retry.max_retries == 1
        assert session.cache is not None
        assert str(session.cache.root) == str(tmp_path / "cache")
        assert session.journal is not None
        session.close()

    def test_session_exposes_its_policies(self):
        session = Session(cache=NO_CACHE)
        assert session.execution == ExecutionPolicy()
        assert session.cache_policy == NO_CACHE
        assert session.journal_policy == JournalPolicy()

    def test_top_level_reexports(self):
        import repro

        assert repro.Session is Session
        assert repro.RunRequest is RunRequest
        assert repro.execute is execute
        assert repro.ExecutionPolicy is ExecutionPolicy
        assert repro.CachePolicy is CachePolicy
        assert repro.JournalPolicy is JournalPolicy
