"""Tests for the parallel, cache-aware sweep engine."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

from repro.common.config import AttackModel
from repro.sim.api import RunFailure, RunMetrics, Session
from repro.sim.cache import ResultCache
from repro.sim.configs import config_by_name
from repro.sim.engine import SweepEngine
from repro.sim.events import JsonlEventLog
from repro.sim.policies import CachePolicy, ExecutionPolicy
from repro.workloads import make_indirect_stream

WORKLOAD = make_indirect_stream("engine_unit", table_words=512, iterations=60, seed=4)
NO_CACHE = CachePolicy(enabled=False)
CONFIG_NAMES = ("Unsafe", "STT{ld}", "Hybrid")


def make_requests(session):
    return [session.request(WORKLOAD, name) for name in CONFIG_NAMES]


class TestDeterminism:
    def test_results_keep_request_order(self):
        session = Session(cache=NO_CACHE)
        results = session.run_many(make_requests(session))
        assert [r.config for r in results] == list(CONFIG_NAMES)

    def test_parallel_equals_serial(self):
        """jobs=N must produce results identical (ordering included) to
        jobs=1 — parallelism is a pure go-faster knob."""
        serial = Session(cache=NO_CACHE, execution=ExecutionPolicy(jobs=1))
        parallel = Session(cache=NO_CACHE, execution=ExecutionPolicy(jobs=2))
        requests = make_requests(serial)
        assert parallel.run_many(requests) == serial.run_many(requests)

    def test_spawn_workers_equal_serial(self, monkeypatch):
        """Workers started with ``spawn`` receive the requests pickled once
        per worker rather than inherited; cells taken by index must still
        give exactly the serial results."""
        import multiprocessing

        import repro.sim.engine as engine_mod

        contexts = []

        def spawn_context():
            contexts.append(multiprocessing.get_context("spawn"))
            return contexts[-1]

        monkeypatch.setattr(engine_mod, "_pool_context", spawn_context)
        other = make_indirect_stream("engine_other", table_words=256, iterations=60, seed=5)
        serial = Session(cache=NO_CACHE, execution=ExecutionPolicy(jobs=1))
        parallel = Session(cache=NO_CACHE, execution=ExecutionPolicy(jobs=2))
        requests = [
            serial.request(WORKLOAD, "Unsafe"),
            serial.request(WORKLOAD, "Hybrid"),
            serial.request(other, "STT{ld}"),
            serial.request(other, "Unsafe"),
        ]
        expected = serial.run_many(requests)
        assert not contexts, "a serial sweep starts no workers"
        assert parallel.run_many(requests) == expected
        assert len(contexts) == 1

    def test_sweep_matches_legacy_iteration_order(self):
        session = Session(cache=NO_CACHE)
        results = session.sweep(
            [WORKLOAD],
            configs=[config_by_name("Unsafe"), config_by_name("Hybrid")],
            attack_models=(AttackModel.SPECTRE, AttackModel.FUTURISTIC),
        )
        assert [(r.attack_model, r.config) for r in results] == [
            (AttackModel.SPECTRE, "Unsafe"),
            (AttackModel.SPECTRE, "Hybrid"),
            (AttackModel.FUTURISTIC, "Unsafe"),
            (AttackModel.FUTURISTIC, "Hybrid"),
        ]


class TestCacheIntegration:
    def test_second_sweep_hits_cache_without_building_a_core(
        self, tmp_path, monkeypatch
    ):
        """Acceptance: the repeat sweep must not construct a single Core."""
        first = Session(cache=CachePolicy(cache_dir=tmp_path))
        cold = first.run_many(make_requests(first))

        import repro.sim.api as api

        def no_core(*_args, **_kwargs):
            raise AssertionError("cache hit must not construct a Core")

        monkeypatch.setattr(api, "Core", no_core)
        events = []
        second = Session(
            cache=CachePolicy(cache_dir=tmp_path), observers=[events.append]
        )
        warm = second.run_many(make_requests(second))
        assert warm == cold
        assert {e.kind for e in events} == {"queued", "cache_hit"}

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        serial = Session(
            cache=CachePolicy(cache_dir=tmp_path), execution=ExecutionPolicy(jobs=1)
        )
        cold = serial.run_many(make_requests(serial))
        parallel = Session(
            cache=CachePolicy(cache_dir=tmp_path), execution=ExecutionPolicy(jobs=2)
        )
        events = []
        parallel.add_observer(events.append)
        warm = parallel.run_many(make_requests(parallel))
        assert warm == cold
        assert all(e.kind in ("queued", "cache_hit") for e in events)

    def test_explicit_result_cache_instance(self, tmp_path):
        cache = ResultCache(tmp_path)
        session = Session(cache=cache)
        session.run(WORKLOAD, "Unsafe")
        assert len(cache) == 1

    def test_cold_sweep_computes_each_cache_key_once(self, tmp_path, monkeypatch):
        """The cache lookup and the store of a cell share the engine's
        memoized key: one ``cache_key`` per cell, with the same key bytes
        as a lookup that computes its own."""
        import repro.sim.cache as cache_mod
        import repro.sim.engine as engine_mod

        real_key = cache_mod.cache_key
        keyed = []

        def counting_key(request):
            keyed.append(request)
            return real_key(request)

        monkeypatch.setattr(cache_mod, "cache_key", counting_key)
        monkeypatch.setattr(engine_mod, "cache_key", counting_key)
        session = Session(cache=CachePolicy(cache_dir=tmp_path))
        requests = make_requests(session)
        cold = session.run_many(requests)
        assert all(isinstance(outcome, RunMetrics) for outcome in cold)
        assert keyed == requests
        monkeypatch.undo()
        cache = ResultCache(tmp_path)
        assert [cache.get(request, real_key(request)) for request in requests] == cold


class TestFaultIsolation:
    def test_failure_surfaces_as_runfailure_serial(self, monkeypatch):
        import repro.sim.engine as engine_mod

        real_execute = engine_mod.execute

        def flaky(request):
            if request.config.name == "STT{ld}":
                raise RuntimeError("injected fault")
            return real_execute(request)

        monkeypatch.setattr(engine_mod, "execute", flaky)
        session = Session(cache=NO_CACHE, execution=ExecutionPolicy(jobs=1))
        results = session.run_many(make_requests(session))
        assert isinstance(results[0], RunMetrics)
        assert isinstance(results[1], RunFailure)
        assert isinstance(results[2], RunMetrics)
        failure = results[1]
        assert failure.config == "STT{ld}"
        assert failure.error_type == "RuntimeError"
        assert "injected fault" in failure.message
        assert "injected fault" in failure.traceback

    def test_failure_surfaces_as_runfailure_parallel(self, monkeypatch):
        """One crashed worker cell must not kill the sweep (workers inherit
        the patched module via fork)."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fault injection via monkeypatch needs fork workers")

        import repro.sim.engine as engine_mod

        real_execute = engine_mod.execute

        def flaky(request):
            if request.config.name == "Hybrid":
                raise ValueError("parallel fault")
            return real_execute(request)

        monkeypatch.setattr(engine_mod, "execute", flaky)
        session = Session(cache=NO_CACHE, execution=ExecutionPolicy(jobs=2))
        results = session.run_many(make_requests(session))
        assert [type(r) for r in results] == [RunMetrics, RunMetrics, RunFailure]
        assert results[2].error_type == "ValueError"

    def test_strict_raises_with_failure_summary(self, monkeypatch):
        import repro.sim.engine as engine_mod

        def always_fail(_request):
            raise RuntimeError("boom")

        monkeypatch.setattr(engine_mod, "execute", always_fail)
        session = Session(cache=NO_CACHE)
        with pytest.raises(RuntimeError, match="boom"):
            session.run(WORKLOAD, "Unsafe")

    def test_failed_run_is_not_cached(self, tmp_path, monkeypatch):
        import repro.sim.engine as engine_mod

        def always_fail(_request):
            raise RuntimeError("boom")

        monkeypatch.setattr(engine_mod, "execute", always_fail)
        cache = ResultCache(tmp_path)
        session = Session(cache=cache)
        [outcome] = session.run_many([session.request(WORKLOAD, "Unsafe")])
        assert isinstance(outcome, RunFailure)
        assert len(cache) == 0


class TestEvents:
    def test_lifecycle_sequence_serial(self):
        events = []
        session = Session(cache=NO_CACHE, observers=[events.append])
        session.run(WORKLOAD, "Unsafe")
        assert [e.kind for e in events] == ["queued", "started", "finished"]
        finished = events[-1]
        assert finished.cycles > 0
        assert finished.wall_time > 0
        assert finished.workload == "engine_unit"
        assert finished.model == "spectre"

    def test_failed_event_carries_error(self, monkeypatch):
        import repro.sim.engine as engine_mod

        def always_fail(_request):
            raise RuntimeError("boom")

        monkeypatch.setattr(engine_mod, "execute", always_fail)
        events = []
        session = Session(cache=NO_CACHE, observers=[events.append])
        session.run_many([session.request(WORKLOAD, "Unsafe")])
        assert [e.kind for e in events] == ["queued", "started", "failed"]
        assert "RuntimeError: boom" in events[-1].error

    def test_every_request_reaches_exactly_one_terminal_event(self, tmp_path):
        events = []
        session = Session(
            cache=CachePolicy(cache_dir=tmp_path),
            execution=ExecutionPolicy(jobs=2),
            observers=[events.append],
        )
        session.run_many(make_requests(session))
        terminal = [e for e in events if e.kind in ("finished", "failed", "cache_hit")]
        assert sorted(e.index for e in terminal) == [0, 1, 2]

    def test_parallel_started_never_exceeds_jobs(self, tmp_path):
        """With ``jobs < len(pending)`` the recorded event log must never
        claim more than ``jobs`` runs started-but-unterminated.  (The
        pre-fix engine emitted every ``started`` at submit time, so the log
        said all six runs were in flight at once on two workers.)"""
        jobs = 2
        log_path = tmp_path / "sweep.events.jsonl"
        with JsonlEventLog(log_path) as log:
            session = Session(
                cache=NO_CACHE, execution=ExecutionPolicy(jobs=jobs), observers=[log]
            )
            session.sweep(
                [WORKLOAD],
                configs=[config_by_name(name) for name in CONFIG_NAMES],
                attack_models=(AttackModel.SPECTRE, AttackModel.FUTURISTIC),
            )
        from repro.sim.events import read_events

        events = read_events(log_path)
        started: set[int] = set()
        terminated: set[int] = set()
        peak = 0
        for event in events:
            if event.kind == "started":
                assert event.index not in started, "duplicate started"
                started.add(event.index)
            elif event.kind in ("finished", "failed"):
                assert event.index in started, "terminal event before started"
                terminated.add(event.index)
            peak = max(peak, len(started - terminated))
        assert started == terminated == set(range(2 * len(CONFIG_NAMES)))
        assert peak <= jobs, (
            f"event log claims {peak} concurrent runs with jobs={jobs}"
        )

    def test_jsonl_event_log(self, tmp_path):
        log_path = tmp_path / "sweep.events.jsonl"
        with JsonlEventLog(log_path) as log:
            session = Session(cache=NO_CACHE, observers=[log])
            session.run(WORKLOAD, "Unsafe")
        import json

        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert [r["kind"] for r in records] == ["queued", "started", "finished"]
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert records[-1]["cycles"] > 0
        assert records[-1]["config"] == "Unsafe"


class TestEngineValidation:
    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepEngine(jobs=0)

    def test_empty_batch(self):
        session = Session(cache=NO_CACHE)
        assert session.run_many([]) == []


def test_serial_runs_never_load_the_pool_machinery():
    """``multiprocessing`` and ``queue`` are the worker pool's alone: a
    fresh interpreter that imports the package and the CLI, runs one
    ``jobs=1`` cell through ``Session.run_many`` and ``repro info`` has
    loaded neither."""
    script = (
        "import sys\n"
        "import repro, repro.__main__\n"
        "from repro.sim.api import RunMetrics, Session\n"
        "from repro.sim.policies import CachePolicy, ExecutionPolicy\n"
        "from repro.workloads import make_indirect_stream\n"
        "workload = make_indirect_stream('serial', table_words=256, iterations=20, seed=1)\n"
        "session = Session(cache=CachePolicy(enabled=False), execution=ExecutionPolicy(jobs=1))\n"
        "[outcome] = session.run_many([session.request(workload, 'Hybrid')])\n"
        "assert isinstance(outcome, RunMetrics), outcome\n"
        "repro.__main__.main(['info'])\n"
        "pool = ('multiprocessing', 'queue')\n"
        "print('loaded:', sorted(m for m in sys.modules if m.split('.')[0] in pool))\n"
    )
    src = str(pathlib.Path(repro.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[-1] == "loaded: []"
