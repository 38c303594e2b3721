"""Tests for the sweep engine's fault tolerance: retries, timeouts,
classification, cancellation, and resumable journals — all driven by the
deterministic :mod:`repro.testing.faults` harness."""

import multiprocessing
import os
import signal

import pytest

from repro.sim.api import (
    FAILURE_BUDGET,
    FAILURE_CANCELLED,
    FAILURE_CRASH,
    FAILURE_HANG,
    FAILURE_TIMEOUT,
    RunFailure,
    RunMetrics,
    Session,
)
from repro.sim.engine import RetryPolicy, SweepEngine
from repro.sim.events import TERMINAL_EVENTS
from repro.sim.policies import CachePolicy, ExecutionPolicy, JournalPolicy
from repro.testing.faults import FaultPlan, FaultSpec, InjectedCrash, inject
from repro.workloads import make_indirect_stream

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault injection reaches pool workers only via fork",
)

#: Fast backoff so retry tests do not sleep for real.
FAST_RETRY = RetryPolicy(max_retries=1, backoff_base=0.01)


def cell(name, seed=1):
    return make_indirect_stream(name, table_words=64, iterations=8, seed=seed)


def make_session(tmp_path=None, **kwargs):
    """Build a Session from flat engine-ish kwargs via the policy objects
    (keeps these tests terse)."""
    kwargs.setdefault("max_instructions", 2_000)
    execution = ExecutionPolicy(
        **{
            name: kwargs.pop(name)
            for name in (
                "jobs", "timeout", "retries", "hang_window", "fail_on_unhalted"
            )
            if name in kwargs
        }
    )
    cache_dir = kwargs.pop("cache_dir", None)
    cache = CachePolicy(
        enabled=bool(kwargs.pop("cache", False)),
        cache_dir=str(cache_dir) if cache_dir else None,
    )
    journal_path = kwargs.pop("journal", None)
    journal = JournalPolicy(
        path=str(journal_path) if journal_path else None,
        resume=kwargs.pop("resume", False),
    )
    return Session(execution=execution, cache=cache, journal=journal, **kwargs)


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy(max_retries=3)
        assert policy.delay("k", 2) == policy.delay("k", 2)

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(
            max_retries=9, backoff_base=1.0, backoff_factor=2.0,
            backoff_max=4.0, jitter=0.0,
        )
        assert [policy.delay("k", n) for n in (2, 3, 4, 5)] == [1.0, 2.0, 4.0, 4.0]

    def test_jitter_is_bounded_and_key_dependent(self):
        policy = RetryPolicy(max_retries=1, backoff_base=1.0, jitter=0.1)
        delays = {policy.delay(f"key{i}", 2) for i in range(16)}
        assert all(0.9 <= d <= 1.1 for d in delays)
        assert len(delays) > 1, "different cells must not share one instant"

    def test_should_retry_respects_kind_and_budget(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.should_retry(FAILURE_CRASH, 1)
        assert policy.should_retry(FAILURE_TIMEOUT, 2)
        assert not policy.should_retry(FAILURE_CRASH, 3)  # budget spent
        assert not policy.should_retry(FAILURE_HANG, 1)  # deterministic kind
        assert not policy.should_retry(FAILURE_BUDGET, 1)

    def test_engine_coerces_int_retry(self):
        assert SweepEngine(retry=2).retry.max_retries == 2
        assert SweepEngine().retry.max_retries == 0


class TestFaultHarness:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("explode")

    def test_claim_counts_attempts(self, tmp_path):
        plan = FaultPlan({"w": FaultSpec("crash", times=2)}, state_dir=tmp_path)
        session = make_session()
        request = session.request(cell("w"), "Unsafe")
        spec = plan.lookup(request)
        assert [plan.claim(request, spec) for _ in range(3)] == [True, True, False]

    def test_specific_key_beats_workload_key(self, tmp_path):
        plan = FaultPlan(
            {"w": FaultSpec("crash"), "w/Hybrid": FaultSpec("slow", seconds=0.1)},
            state_dir=tmp_path,
        )
        session = make_session()
        assert plan.lookup(session.request(cell("w"), "Hybrid")).kind == "slow"
        assert plan.lookup(session.request(cell("w"), "Unsafe")).kind == "crash"
        assert plan.lookup(session.request(cell("other"), "Unsafe")) is None


class TestRetries:
    def test_flaky_cell_recovers_on_retry(self, tmp_path):
        plan = FaultPlan(
            {"flaky": FaultSpec("crash", times=1)}, state_dir=tmp_path
        )
        events = []
        session = make_session(retries=FAST_RETRY, observers=[events.append])
        with inject(plan):
            metrics = session.run(cell("flaky"), "Unsafe")
        assert isinstance(metrics, RunMetrics)
        kinds = [e.kind for e in events]
        assert kinds == ["queued", "started", "retrying", "started", "finished"]
        retrying = events[2]
        assert retrying.attempt == 2
        assert retrying.failure_kind == FAILURE_CRASH
        assert events[3].attempt == 2  # the re-dispatch carries the attempt
        assert events[-1].attempt == 2

    def test_persistent_crash_exhausts_attempts(self, tmp_path):
        plan = FaultPlan({"doomed": FaultSpec("crash")}, state_dir=tmp_path)
        session = make_session(retries=FAST_RETRY)
        with inject(plan):
            [outcome] = session.run_many([session.request(cell("doomed"), "Unsafe")])
        assert isinstance(outcome, RunFailure)
        assert outcome.kind == FAILURE_CRASH
        assert outcome.attempts == 2
        assert outcome.error_type == "InjectedCrash"

    def test_injected_crash_is_distinct(self, tmp_path):
        plan = FaultPlan({"w": FaultSpec("crash")}, state_dir=tmp_path)
        session = make_session()
        with inject(plan):
            [outcome] = session.run_many([session.request(cell("w"), "Unsafe")])
        assert InjectedCrash.__name__ in outcome.error_type

    def test_no_retries_by_default(self, tmp_path):
        plan = FaultPlan({"w": FaultSpec("crash", times=1)}, state_dir=tmp_path)
        session = make_session()
        with inject(plan):
            [outcome] = session.run_many([session.request(cell("w"), "Unsafe")])
        assert isinstance(outcome, RunFailure)
        assert outcome.attempts == 1


class TestHangClassification:
    def test_watchdog_hang_is_kind_hang_and_not_retried(self, monkeypatch):
        """A core wedged past its hang window must come back as a ``hang``
        failure whose message names the blocked ROB-head uop — and must not
        be retried (it would deterministically wedge again)."""
        from repro.pipeline import UnsafeProtection
        from repro.pipeline.protection import IssueDecision, LoadIssueAction

        class Wedged(UnsafeProtection):
            supports_fast_forward = False

            def load_issue_decision(self, uop):
                return IssueDecision(LoadIssueAction.DELAY)

        import repro.sim.api as api

        monkeypatch.setattr(api, "make_protection", lambda *a, **k: Wedged())
        events = []
        session = make_session(
            retries=FAST_RETRY, hang_window=2_000, observers=[events.append]
        )
        [outcome] = session.run_many([session.request(cell("wedged"), "Unsafe")])
        assert isinstance(outcome, RunFailure)
        assert outcome.kind == FAILURE_HANG
        assert outcome.attempts == 1, "hangs are deterministic: never retried"
        assert "ROB head" in outcome.message and "load" in outcome.message
        assert [e.kind for e in events] == ["queued", "started", "failed"]
        assert events[-1].failure_kind == FAILURE_HANG


@needs_fork
class TestTimeouts:
    def test_stuck_worker_is_killed_and_classified(self, tmp_path):
        plan = FaultPlan({"stuck": FaultSpec("hang")}, state_dir=tmp_path)
        events = []
        session = make_session(jobs=2, timeout=1.0, observers=[events.append])
        requests = [
            session.request(cell("ok"), "Unsafe"),
            session.request(cell("stuck", seed=2), "Unsafe"),
        ]
        with inject(plan):
            ok, stuck = session.run_many(requests)
        assert isinstance(ok, RunMetrics)
        assert isinstance(stuck, RunFailure)
        assert stuck.kind == FAILURE_TIMEOUT
        assert "1s wall-clock timeout" in stuck.message
        timed_out = [e for e in events if e.kind == "timed_out"]
        assert len(timed_out) == 1 and timed_out[0].index == 1

    def test_timeout_forces_a_killable_worker_with_jobs_1(self, tmp_path):
        """jobs=1 normally runs in-process, where nothing can be killed; a
        timeout must force the run into a worker process anyway."""
        plan = FaultPlan({"stuck": FaultSpec("hang")}, state_dir=tmp_path)
        session = make_session(jobs=1, timeout=1.0)
        with inject(plan):
            [outcome] = session.run_many([session.request(cell("stuck"), "Unsafe")])
        assert isinstance(outcome, RunFailure)
        assert outcome.kind == FAILURE_TIMEOUT

    def test_timed_out_cell_is_retried_then_settles(self, tmp_path):
        plan = FaultPlan({"stuck": FaultSpec("hang")}, state_dir=tmp_path)
        events = []
        session = make_session(
            jobs=1, timeout=0.5, retries=FAST_RETRY, observers=[events.append]
        )
        with inject(plan):
            [outcome] = session.run_many([session.request(cell("stuck"), "Unsafe")])
        assert outcome.kind == FAILURE_TIMEOUT
        assert outcome.attempts == 2
        assert [e.kind for e in events if e.kind == "timed_out"] == ["timed_out"] * 2

    def test_replaced_worker_resolves_the_retried_cell(self, tmp_path):
        """A worker killed on timeout is replaced by one holding the same
        requests, so the retried cell (and the ones after it) resolve by
        index to their own results."""
        plan = FaultPlan(
            {"oncestuck": FaultSpec("hang", times=1)}, state_dir=tmp_path
        )
        events = []
        session = make_session(
            jobs=2, timeout=1.0, retries=FAST_RETRY, observers=[events.append]
        )
        requests = [
            session.request(cell("ok"), "Unsafe"),
            session.request(cell("oncestuck", seed=2), "Hybrid"),
            session.request(cell("after", seed=3), "STT{ld}"),
        ]
        with inject(plan):
            outcomes = session.run_many(requests)
        assert [e.index for e in events if e.kind == "timed_out"] == [1]
        assert outcomes == make_session(jobs=1).run_many(requests)
        assert [o.workload for o in outcomes] == ["ok", "oncestuck", "after"]

    def test_flaky_hang_recovers_after_timeout_retry(self, tmp_path):
        """A cell that hangs once and then behaves models a transient host
        problem — the timeout+retry pair must rescue it."""
        plan = FaultPlan(
            {"oncestuck": FaultSpec("hang", times=1)}, state_dir=tmp_path
        )
        session = make_session(jobs=1, timeout=1.0, retries=FAST_RETRY)
        with inject(plan):
            metrics = session.run(cell("oncestuck"), "Unsafe")
        assert isinstance(metrics, RunMetrics)


class TestBudgetClassification:
    def test_unhalted_run_is_metrics_by_default(self):
        import dataclasses

        capped = dataclasses.replace(cell("capped"), max_cycles=40)
        session = make_session()
        metrics = session.run(capped, "Unsafe")
        assert isinstance(metrics, RunMetrics)
        assert metrics.termination == "max_cycles"
        assert not metrics.halted

    def test_fail_on_unhalted_classifies_budget_exhaustion(self):
        import dataclasses

        capped = dataclasses.replace(cell("capped"), max_cycles=40)
        events = []
        session = make_session(fail_on_unhalted=True, observers=[events.append])
        [outcome] = session.run_many([session.request(capped, "Unsafe")])
        assert isinstance(outcome, RunFailure)
        assert outcome.kind == FAILURE_BUDGET
        assert "max_cycles" in outcome.message
        assert events[-1].failure_kind == FAILURE_BUDGET


class TestCancellation:
    def test_serial_keyboard_interrupt_cancels_remaining(self, monkeypatch):
        import repro.sim.engine as engine_mod

        real_execute = engine_mod.execute

        def interrupting(request):
            if request.workload.name == "second":
                raise KeyboardInterrupt
            return real_execute(request)

        monkeypatch.setattr(engine_mod, "execute", interrupting)
        events = []
        session = make_session(observers=[events.append])
        requests = [
            session.request(cell(name), "Unsafe")
            for name in ("first", "second", "third")
        ]
        outcomes = session.run_many(requests)
        assert isinstance(outcomes[0], RunMetrics)
        assert [o.kind for o in outcomes[1:]] == [FAILURE_CANCELLED] * 2
        assert [e.index for e in events if e.kind == "cancelled"] == [1, 2]

    @needs_fork
    def test_sigint_cancels_pending_and_drains_running(self, tmp_path):
        """First SIGINT: pending cells are cancelled, the two runs already
        on workers drain to completion, partial results keep request order,
        and the journal lets a resumed sweep skip the finished cells."""
        plan = FaultPlan(
            {f"slow{i}": FaultSpec("slow", seconds=1.0) for i in range(6)},
            state_dir=tmp_path / "faults",
        )
        journal_path = tmp_path / "sweep.journal"
        started = []

        def interrupt_once_both_workers_run(event):
            # SIGINT as soon as the second cell is on a worker — not on a
            # wall-clock timer, which a loaded host can outrun.
            if event.kind == "started":
                started.append(event.index)
                if len(started) == 2:
                    os.kill(os.getpid(), signal.SIGINT)

        session = make_session(
            jobs=2, journal=journal_path, observers=[interrupt_once_both_workers_run]
        )
        requests = [
            session.request(cell(f"slow{i}", seed=i + 1), "Unsafe")
            for i in range(6)
        ]
        try:
            with inject(plan):
                outcomes = session.run_many(requests)
        finally:
            session.close()
        assert len(outcomes) == 6
        assert [o.workload for o in outcomes] == [f"slow{i}" for i in range(6)]
        finished = [o for o in outcomes if isinstance(o, RunMetrics)]
        cancelled = [
            o for o in outcomes
            if isinstance(o, RunFailure) and o.kind == FAILURE_CANCELLED
        ]
        assert len(finished) == 2, "the two in-flight runs must drain"
        assert len(cancelled) == 4, "every pending cell must be cancelled"

        # Resume: only the cancelled cells execute; finished ones replay
        # from the journal without touching a worker.
        events = []
        resumed = make_session(
            journal=journal_path, resume=True, observers=[events.append]
        )
        try:
            outcomes2 = resumed.run_many(requests)
        finally:
            resumed.close()
        assert all(isinstance(o, RunMetrics) for o in outcomes2)
        started = {e.index for e in events if e.kind == "started"}
        replayed = {e.index for e in events if e.kind == "cache_hit"}
        cancelled_indices = {
            i for i, o in enumerate(outcomes) if isinstance(o, RunFailure)
        }
        assert started == cancelled_indices, (
            "resume must re-execute exactly the cells that never ran"
        )
        assert replayed == set(range(6)) - cancelled_indices


class TestResume:
    def test_resume_replays_metrics_and_failures_without_executing(
        self, tmp_path, monkeypatch
    ):
        plan = FaultPlan({"bad": FaultSpec("crash")}, state_dir=tmp_path / "f")
        journal_path = tmp_path / "sweep.journal"
        session = make_session(journal=journal_path)
        requests = [
            session.request(cell(name, seed=i + 1), "Unsafe")
            for i, name in enumerate(("a", "bad", "c"))
        ]
        with inject(plan):
            first = session.run_many(requests)
        session.close()
        assert isinstance(first[1], RunFailure)

        import repro.sim.engine as engine_mod

        def must_not_run(_request):
            raise AssertionError("resume must not re-execute journalled cells")

        monkeypatch.setattr(engine_mod, "execute", must_not_run)
        resumed = make_session(journal=journal_path, resume=True)
        second = resumed.run_many(requests)
        resumed.close()
        assert [type(o) for o in second] == [type(o) for o in first]
        assert second[1].kind == first[1].kind == FAILURE_CRASH
        assert second[0].cycles == first[0].cycles

    def test_resumed_failure_takes_the_renamed_workloads_name(
        self, tmp_path, monkeypatch
    ):
        """The journal is content-addressed, so a renamed but identical
        workload resumes the recorded failure — under its own name."""
        plan = FaultPlan({"bad": FaultSpec("crash")}, state_dir=tmp_path / "f")
        journal_path = tmp_path / "sweep.journal"
        session = make_session(journal=journal_path)
        with inject(plan):
            [first] = session.run_many([session.request(cell("bad"), "Unsafe")])
        session.close()
        assert isinstance(first, RunFailure) and first.workload == "bad"

        import repro.sim.engine as engine_mod

        def must_not_run(_request):
            raise AssertionError("resume must not re-execute journalled cells")

        monkeypatch.setattr(engine_mod, "execute", must_not_run)
        resumed = make_session(journal=journal_path, resume=True)
        [second] = resumed.run_many([resumed.request(cell("renamed"), "Unsafe")])
        resumed.close()
        assert isinstance(second, RunFailure)
        assert second.workload == "renamed"
        assert (second.error_type, second.kind) == (first.error_type, FAILURE_CRASH)

    def test_resume_without_journal_rejected(self):
        with pytest.raises(ValueError):
            JournalPolicy(resume=True)

    def test_journal_records_cache_hits_too(self, tmp_path):
        """A cell served by the result cache still lands in the journal, so
        a later --resume with no cache configured stays complete."""
        journal_path = tmp_path / "sweep.journal"
        warm = make_session(cache=True, cache_dir=tmp_path / "cache")
        request = warm.request(cell("w"), "Unsafe")
        warm.run(request)
        journalled = make_session(
            cache=True, cache_dir=tmp_path / "cache", journal=journal_path
        )
        journalled.run(request)
        journalled.close()
        from repro.sim.cache import SweepJournal

        journal = SweepJournal(journal_path)
        assert journal.load() == 1


@needs_fork
class TestAcceptanceSweep:
    def test_twenty_cell_fault_injected_sweep(self, tmp_path, monkeypatch):
        """The ISSUE's acceptance scenario: a 20-cell sweep with injected
        crashes, a flaky cell, a wedged core, a stuck worker, and a slow
        cell returns a complete outcome list in request order with every
        failure correctly classified."""
        from repro.pipeline import UnsafeProtection
        from repro.pipeline.protection import IssueDecision, LoadIssueAction

        class Wedged(UnsafeProtection):
            supports_fast_forward = False

            def load_issue_decision(self, uop):
                return IssueDecision(LoadIssueAction.DELAY)

        import repro.sim.api as api

        real_make_protection = api.make_protection

        def selective(config, attack_model, **kwargs):
            if config.name == "STT{ld}":  # only the wedged cell uses it
                return Wedged()
            return real_make_protection(config, attack_model, **kwargs)

        monkeypatch.setattr(api, "make_protection", selective)

        plan = FaultPlan(
            {
                "cell03": FaultSpec("crash"),  # crashes every attempt
                "cell07": FaultSpec("crash", times=1),  # flaky: recovers
                "cell11": FaultSpec("hang"),  # stuck worker, killed
                "cell15": FaultSpec("slow", seconds=0.3),  # slow but fine
            },
            state_dir=tmp_path / "faults",
        )
        events = []
        session = make_session(
            jobs=4,
            timeout=2.0,
            retries=RetryPolicy(max_retries=1, backoff_base=0.05),
            journal=tmp_path / "sweep.journal",
            hang_window=2_000,
            observers=[events.append],
        )
        requests = [
            session.request(
                cell(f"cell{i:02d}", seed=i + 1),
                "STT{ld}" if i == 5 else "Unsafe",
            )
            for i in range(20)
        ]
        with inject(plan):
            outcomes = session.run_many(requests)
        session.close()

        assert len(outcomes) == 20
        assert [o.workload for o in outcomes] == [f"cell{i:02d}" for i in range(20)]

        failures = {
            i: o for i, o in enumerate(outcomes) if isinstance(o, RunFailure)
        }
        assert set(failures) == {3, 5, 11}
        assert failures[3].kind == FAILURE_CRASH
        assert failures[3].attempts == 2  # retried once, still crashed
        assert failures[5].kind == FAILURE_HANG
        assert failures[5].attempts == 1  # hangs are never retried
        assert "ROB head" in failures[5].message
        assert failures[11].kind == FAILURE_TIMEOUT
        assert failures[11].attempts == 2  # timeout is transient: retried

        for i, outcome in enumerate(outcomes):
            if i not in failures:
                assert isinstance(outcome, RunMetrics), f"cell{i:02d}"
                assert outcome.halted, f"cell{i:02d}"

        terminal = [e for e in events if e.kind in TERMINAL_EVENTS]
        assert sorted(e.index for e in terminal) == list(range(20)), (
            "every cell must reach exactly one terminal event"
        )

        from repro.sim.cache import SweepJournal

        journal = SweepJournal(tmp_path / "sweep.journal")
        assert journal.load() == 20, "all terminal outcomes are journalled"
