"""The parallel, cache-aware, fault-tolerant sweep engine.

:class:`SweepEngine` takes a batch of :class:`~repro.sim.api.RunRequest`
and returns one outcome per request, **in request order**, regardless of
worker count, cache state, or faults:

* cached results are resolved in the parent process without building a
  single :class:`~repro.pipeline.core.Core`;
* the remainder fans out over a managed worker-process pool (``jobs > 1``
  or a wall-clock ``timeout``) or runs in-process;
* a crashed run becomes a structured :class:`~repro.sim.api.RunFailure` in
  its slot — one bad cell cannot kill a sweep;
* a run exceeding the wall-clock ``timeout`` has its worker killed and is
  classified ``timeout``; a :class:`~repro.pipeline.core.SimulationHang`
  from the core watchdog is classified ``hang``;
* transient failures are retried per :class:`RetryPolicy` (exponential
  backoff with deterministic jitter);
* SIGINT/SIGTERM cancels the cells that have not started, drains the ones
  running, and returns partial results in request order;
* every terminal outcome is recorded in an optional
  :class:`~repro.sim.cache.SweepJournal` so an interrupted sweep resumes
  without re-executing finished cells;
* every lifecycle step is narrated to the registered observers as
  :class:`~repro.sim.events.RunEvent` records.

Simulation is deterministic, so ``jobs=N`` produces results identical to
``jobs=1`` — parallelism, caching, and fault tolerance are pure
reliability/go-faster knobs.
"""

from __future__ import annotations

import hashlib
import heapq
import signal
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.pipeline.core import SimulationHang
from repro.sim.api import (
    FAILURE_BUDGET,
    FAILURE_CANCELLED,
    FAILURE_CRASH,
    FAILURE_HANG,
    FAILURE_TIMEOUT,
    TRANSIENT_FAILURE_KINDS,
    RunFailure,
    RunMetrics,
    RunOutcome,
    RunRequest,
    _rebrand,
    execute,
)
from repro.sim.cache import ResultCache, cache_key
from repro.sim.events import (
    CACHE_HIT,
    CANCELLED,
    FAILED,
    FINISHED,
    QUEUED,
    RETRYING,
    STARTED,
    TIMED_OUT,
    EventObserver,
    RunEvent,
)

if TYPE_CHECKING:
    from repro.sim.cache import SweepJournal

#: (error type name, message, formatted traceback, failure kind) —
#: exceptions are reduced to text in the worker because they do not
#: reliably cross process pickling.
_ErrorInfo = tuple[str, str, str, str]

#: Parent-loop polling granularity (seconds): the latency floor for
#: noticing a finished worker or an expired deadline.
_TICK = 0.05


def _execute_indexed(
    index: int, request: RunRequest, trace_dir: str | None = None
) -> tuple[int, RunMetrics | None, _ErrorInfo | None, float]:
    """Worker entry point: run one request, never raise.

    With ``trace_dir`` set, the request is resolved through the replay
    backend first: a recorded architectural trace covering the request
    replaces the per-commit functional ISS (bit-identical metrics, see
    ``repro.replay``), and any missing/torn/outrun trace falls back to a
    plain live run.

    A :class:`SimulationHang` from the core's forward-progress watchdog is
    classified ``hang`` (its message carries the diagnostics snapshot —
    blocked ROB-head uop, stall reason, event-heap head); any other
    exception is a plain ``crash``.
    """
    started = time.perf_counter()
    try:
        if trace_dir is not None:
            from repro.replay.replayer import replay_or_execute

            metrics = replay_or_execute(request, trace_dir)
        else:
            metrics = execute(request)
    except SimulationHang as exc:
        info = (type(exc).__name__, str(exc), traceback.format_exc(), FAILURE_HANG)
        return index, None, info, time.perf_counter() - started
    except Exception as exc:
        info = (type(exc).__name__, str(exc), traceback.format_exc(), FAILURE_CRASH)
        return index, None, info, time.perf_counter() - started
    return index, metrics, None, time.perf_counter() - started


def _worker_main(
    worker_id: int, inbox, outbox, requests, trace_dir: str | None = None
) -> None:
    """Worker-process loop: execute cells until told to stop (``None``).

    ``requests`` is the sweep's whole request list, handed over once when
    the process starts; the inbox carries only cell indices into it.
    """
    # Workers must not react to the terminal's Ctrl-C themselves: the
    # parent decides whether to drain or kill them.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    while True:
        index = inbox.get()
        if index is None:
            return
        outbox.put((worker_id, *_execute_indexed(index, requests[index], trace_dir)))


def _pool_context():
    """Prefer fork where available: cheap start-up, and no serialisation.

    Every worker receives the sweep's request list once, as a process
    argument, and then takes cells by index.  Under ``fork`` the child
    inherits the parent's request objects outright — nothing is pickled,
    and the program digests the parent computed for its cache and trace
    keys come along; under ``spawn`` the list is pickled once per worker,
    not once per cell.

    ``multiprocessing`` is imported here, on the pool path alone, so an
    in-process sweep never loads it.
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclass(frozen=True)
class RetryPolicy:
    """When and how failed cells are re-executed.

    ``max_retries`` extra attempts are made for failures whose ``kind`` is
    in ``retry_kinds`` (by default the transient ones: ``crash`` and
    ``timeout`` — a ``hang`` or exhausted budget is a deterministic
    property of the simulation and would simply repeat).  The n-th retry
    waits ``backoff_base * backoff_factor**(n-1)`` seconds, capped at
    ``backoff_max``, with a deterministic jitter of up to ±``jitter`` of
    the delay derived from the cell's cache key and attempt number — the
    schedule is fully reproducible for a given sweep, yet different cells
    never thundering-herd on the same instant.
    """

    max_retries: int = 0
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.1
    retry_kinds: frozenset[str] = TRANSIENT_FAILURE_KINDS

    def should_retry(self, kind: str, attempt: int) -> bool:
        """May a cell that just failed its ``attempt``-th execution with
        ``kind`` be tried again?"""
        return kind in self.retry_kinds and attempt <= self.max_retries

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before the ``attempt``-th execution (attempt >= 2),
        deterministic in (cell key, attempt)."""
        raw = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 2),
        )
        if not self.jitter or raw <= 0:
            return max(0.0, raw)
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).hexdigest()
        fraction = (int(digest[:8], 16) / 0xFFFFFFFF) * 2.0 - 1.0
        return max(0.0, raw * (1.0 + self.jitter * fraction))


class _WorkerSlot:
    """One managed worker process and its private task queue."""

    __slots__ = ("worker_id", "process", "inbox", "busy_index", "started_at")

    def __init__(
        self, worker_id: int, ctx, outbox, requests, trace_dir: str | None = None
    ) -> None:
        self.worker_id = worker_id
        self.inbox = ctx.Queue(1)
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.inbox, outbox, requests, trace_dir),
            daemon=True,
        )
        self.process.start()
        self.busy_index: int | None = None
        self.started_at = 0.0

    def kill(self) -> None:
        """Forcibly stop the worker (used for wall-clock timeouts)."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - obstinate process
            self.process.kill()
            self.process.join(timeout=5.0)
        self.inbox.close()

    def stop(self) -> None:
        """Ask the worker to exit once its current task (if any) is done."""
        try:
            self.inbox.put_nowait(None)
        except Exception:  # pragma: no cover - full/closed inbox
            pass


class _SignalGuard:
    """Graceful-shutdown handler for SIGINT/SIGTERM during a sweep.

    The first signal sets the cancel flag (the engine stops dispatching,
    cancels pending cells, and drains the running ones); a second SIGINT
    raises :class:`KeyboardInterrupt` for an immediate abort.  Installed
    only in the main thread of the main interpreter — elsewhere (e.g. a
    sweep driven from a worker thread) signal handling stays untouched.
    """

    def __init__(self) -> None:
        self.cancelled = False
        self._installed: list[tuple[int, object]] = []

    def _handle(self, signum, _frame) -> None:
        if self.cancelled and signum == signal.SIGINT:
            raise KeyboardInterrupt
        self.cancelled = True

    def __enter__(self) -> "_SignalGuard":
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    previous = signal.signal(signum, self._handle)
                except (ValueError, OSError):  # pragma: no cover
                    continue
                self._installed.append((signum, previous))
        return self

    def __exit__(self, *_exc) -> None:
        for signum, previous in self._installed:
            signal.signal(signum, previous)
        self._installed.clear()


class SweepEngine:
    """Runs request batches through cache + worker pool + event stream.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` runs in-process unless ``timeout`` forces
        a killable worker.
    cache:
        Optional :class:`ResultCache` consulted/updated around execution.
    observers:
        Callables receiving every :class:`RunEvent`.
    timeout:
        Per-run wall-clock budget in seconds.  A run exceeding it has its
        worker process killed and becomes a ``timeout``
        :class:`RunFailure`.  With ``jobs == 1`` a timeout forces the
        single run into a worker process too (in-process code cannot be
        preempted).
    retry:
        :class:`RetryPolicy`, or an int meaning "that many retries with
        the default backoff", or ``None``/0 for no retries.
    journal:
        Optional :class:`~repro.sim.cache.SweepJournal`.  Terminal
        outcomes are recorded as they settle; outcomes already present
        (a loaded journal) are replayed without execution — the resume
        path.
    fail_on_unhalted:
        Treat a run that exhausted its cycle/instruction budget without
        halting as a ``budget-exhausted`` :class:`RunFailure` instead of
        returning its (suspect) metrics.
    trace_store:
        Optional :class:`~repro.replay.store.TraceStore` enabling the
        record-once/replay-many backend.  Before dispatch, the engine
        groups the cells that miss the cache by
        :func:`~repro.replay.trace.trace_key` (cells differing only in
        protection scheme, attack model, or machine parameters share a
        key) and records each group's architectural trace **once** with
        the standalone functional ISS; every execution then replays the
        trace through the timing pipeline instead of re-running the ISS
        per commit.  Replayed metrics are bit-identical to live ones, so
        cache entries, journals, and events are unaffected; a missing,
        torn, or outrun trace silently falls back to live execution.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache: ResultCache | None = None,
        observers: Iterable[EventObserver] = (),
        timeout: float | None = None,
        retry: "RetryPolicy | int | None" = None,
        journal: "SweepJournal | None" = None,
        fail_on_unhalted: bool = False,
        trace_store=None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.jobs = jobs
        self.cache = cache
        self.observers: list[EventObserver] = list(observers)
        self.timeout = timeout
        if retry is None:
            retry = RetryPolicy(max_retries=0)
        elif isinstance(retry, int):
            retry = RetryPolicy(max_retries=retry)
        self.retry = retry
        self.journal = journal
        self.fail_on_unhalted = fail_on_unhalted
        self.trace_store = trace_store
        self._muted_observers: set[int] = set()
        self._keys: dict[int, str] = {}

    def add_observer(self, observer: EventObserver) -> None:
        self.observers.append(observer)

    def _emit(self, kind: str, index: int, request: RunRequest, **extra) -> None:
        if not self.observers:
            return
        event = RunEvent(
            kind=kind,
            index=index,
            workload=request.workload.name,
            config=request.config.name,
            model=request.attack_model.value,
            **extra,
        )
        for observer in self.observers:
            # Observers are diagnostics; a broken one must not kill the runs
            # it is narrating.  First failure per observer warns, later ones
            # are silent so a sweep is not drowned in repeats.
            try:
                observer(event)
            except Exception as exc:
                if id(observer) not in self._muted_observers:
                    self._muted_observers.add(id(observer))
                    print(
                        f"warning: event observer {observer!r} raised "
                        f"{type(exc).__name__}: {exc} (further errors from it "
                        "are suppressed)",
                        file=sys.stderr,
                    )

    @staticmethod
    def _cacheable(request: RunRequest) -> bool:
        """Instrumented runs bypass the cache in both directions: a cache
        hit would skip producing the trace files, and profile stats must
        never be stored (they describe the host, not the simulation)."""
        return request.instrumentation is None or not request.instrumentation.active

    def _key(self, index: int, request: RunRequest) -> str:
        """Memoized cache key for slot ``index``: one :func:`cache_key` per
        cell per sweep, shared by the result cache, the journal and the
        retry jitter."""
        key = self._keys.get(index)
        if key is None:
            key = self._keys[index] = cache_key(request)
        return key

    def run(self, requests: Sequence[RunRequest]) -> list[RunOutcome]:
        """Execute a batch; the result list mirrors ``requests`` by index."""
        requests = list(requests)
        results: list[RunOutcome | None] = [None] * len(requests)
        self._keys = {}
        for index, request in enumerate(requests):
            self._emit(QUEUED, index, request)

        pending: list[int] = []
        for index, request in enumerate(requests):
            if self._resolve_without_running(index, request, results):
                continue
            pending.append(index)

        if pending:
            if self.trace_store is not None:
                self._prepare_traces(requests, pending)
            with _SignalGuard() as guard:
                use_pool = self.jobs > 1 and len(pending) > 1
                if self.timeout is not None:
                    use_pool = True  # in-process runs cannot be preempted
                if use_pool:
                    self._run_pool(requests, pending, results, guard)
                else:
                    self._run_serial(requests, pending, results, guard)

        assert all(outcome is not None for outcome in results)
        return results  # type: ignore[return-value]

    def _trace_dir(self) -> str | None:
        if self.trace_store is None:
            return None
        return str(self.trace_store.root)

    def _prepare_traces(self, requests, pending) -> None:
        """Record (once, in the parent) the architectural trace of every
        distinct :func:`~repro.replay.trace.trace_key` among the pending
        cells.  Recording is one functional-ISS pass per unique workload ×
        budget — far cheaper than a single timed cell — and is purely an
        accelerator: any failure here leaves the store unchanged and the
        affected cells simply run live."""
        from repro.replay.recorder import record_trace
        from repro.replay.trace import trace_key

        seen: set[str] = set()
        for index in pending:
            request = requests[index]
            try:
                key = trace_key(request)
                if key in seen:
                    continue
                seen.add(key)
                if not self.trace_store.has(key):
                    self.trace_store.put(key, record_trace(request))
            except Exception as exc:
                print(
                    f"warning: trace recording for cell {index} failed with "
                    f"{type(exc).__name__}: {exc} (cell will run live)",
                    file=sys.stderr,
                )

    def _resolve_without_running(
        self, index: int, request: RunRequest, results
    ) -> bool:
        """Try to settle ``index`` from the journal or the result cache."""
        if not self._cacheable(request):
            return False
        if self.journal is not None:
            replayed = self.journal.get(self._key(index, request))
            if replayed is not None:
                outcome = _rebrand(replayed, request)
                results[index] = outcome
                if isinstance(outcome, RunFailure):
                    self._emit(
                        FAILED, index, request,
                        failure_kind=outcome.kind, attempt=outcome.attempts,
                        error=f"{outcome.error_type}: {outcome.message}",
                    )
                else:
                    self._emit(
                        CACHE_HIT, index, request,
                        cycles=outcome.cycles, instructions=outcome.instructions,
                    )
                return True
        if self.cache is not None:
            cached = self.cache.get(request, self._key(index, request))
            if cached is not None:
                results[index] = cached
                if self.journal is not None:
                    self.journal.record(self._key(index, request), cached)
                self._emit(
                    CACHE_HIT, index, request,
                    cycles=cached.cycles, instructions=cached.instructions,
                )
                return True
        return False

    # ------------------------------------------------------------------ #
    # In-process execution (jobs == 1, no wall-clock timeout)
    # ------------------------------------------------------------------ #

    def _run_serial(self, requests, pending, results, guard) -> None:
        remaining = deque(pending)
        while remaining:
            index = remaining.popleft()
            if guard.cancelled:
                self._settle_cancelled(requests, results, index)
                continue
            request = requests[index]
            attempt = 1
            while True:
                self._emit(
                    STARTED, index, request,
                    attempt=attempt if attempt > 1 else None,
                )
                try:
                    _, metrics, error, wall = _execute_indexed(
                        index, request, self._trace_dir()
                    )
                except KeyboardInterrupt:
                    guard.cancelled = True
                    self._settle_cancelled(requests, results, index)
                    break
                done, kind = self._settle(
                    requests, results, index, metrics, error, wall, attempt
                )
                if done:
                    break
                attempt += 1
                delay = self.retry.delay(self._key(index, request), attempt)
                self._emit(
                    RETRYING, index, request,
                    attempt=attempt, failure_kind=kind, wall_time=delay,
                )
                if delay > 0:
                    time.sleep(delay)

    # ------------------------------------------------------------------ #
    # Managed worker pool (parallelism, wall-clock kills, draining)
    # ------------------------------------------------------------------ #

    def _run_pool(self, requests, pending, results, guard) -> None:
        from queue import Empty

        ctx = _pool_context()
        workers = min(self.jobs, len(pending))
        outbox = ctx.Queue()
        slots = [
            _WorkerSlot(i, ctx, outbox, requests, self._trace_dir())
            for i in range(workers)
        ]
        ready: deque[int] = deque(pending)
        delayed: list[tuple[float, int]] = []  # (ready_at, index) heap
        attempts: dict[int, int] = {index: 1 for index in pending}
        outstanding: set[int] = set(pending)

        def busy_slots():
            return [slot for slot in slots if slot.busy_index is not None]

        try:
            while outstanding:
                now = time.monotonic()
                if guard.cancelled and (ready or delayed):
                    # Cancel everything not yet dispatched; keep draining
                    # the runs already on workers.
                    for index in list(ready):
                        self._settle_cancelled(
                            requests, results, index, attempts[index]
                        )
                        outstanding.discard(index)
                    ready.clear()
                    for _, index in delayed:
                        self._settle_cancelled(
                            requests, results, index, attempts[index]
                        )
                        outstanding.discard(index)
                    delayed.clear()
                while delayed and delayed[0][0] <= now and not guard.cancelled:
                    _, index = heapq.heappop(delayed)
                    ready.append(index)
                for slot in slots:
                    if not ready:
                        break
                    if slot.busy_index is not None:
                        continue
                    index = ready.popleft()
                    attempt = attempts[index]
                    slot.busy_index = index
                    slot.started_at = time.monotonic()
                    slot.inbox.put(index)
                    self._emit(
                        STARTED, index, requests[index],
                        attempt=attempt if attempt > 1 else None,
                    )
                if not outstanding:
                    break
                try:
                    item = outbox.get(timeout=_TICK)
                except Empty:
                    item = None
                if item is not None:
                    worker_id, index, metrics, error, wall = item
                    slot = slots[worker_id]
                    if slot.busy_index != index:
                        # A result from a worker killed after its deadline
                        # already settled this cell; drop the straggler.
                        continue
                    slot.busy_index = None
                    self._finish_attempt(
                        requests, results, index, metrics, error, wall,
                        attempts, delayed, outstanding,
                    )
                    continue
                self._reap_workers(
                    slots, ctx, outbox, requests, results,
                    attempts, delayed, outstanding,
                )
                if guard.cancelled and not busy_slots() and not outstanding:
                    break
        finally:
            for slot in slots:
                if slot.busy_index is None and slot.process.is_alive():
                    slot.stop()
            for slot in slots:
                if slot.busy_index is not None:
                    # Cancel settled or abandoned mid-drain (second SIGINT):
                    # don't wait for the run, kill it.
                    slot.kill()
                else:
                    slot.process.join(timeout=5.0)
                    if slot.process.is_alive():  # pragma: no cover
                        slot.kill()
            outbox.close()

    def _reap_workers(
        self, slots, ctx, outbox, requests, results,
        attempts, delayed, outstanding,
    ) -> None:
        """Kill over-deadline workers; replace unexpectedly dead ones."""
        now = time.monotonic()
        for position, slot in enumerate(slots):
            if slot.busy_index is None:
                continue
            index = slot.busy_index
            request = requests[index]
            timed_out = (
                self.timeout is not None and now - slot.started_at > self.timeout
            )
            died = not slot.process.is_alive()
            if not timed_out and not died:
                continue
            wall = now - slot.started_at
            slot.busy_index = None
            slot.kill()
            slots[position] = _WorkerSlot(
                slot.worker_id, ctx, outbox, requests, self._trace_dir()
            )
            if timed_out:
                self._emit(
                    TIMED_OUT, index, request,
                    wall_time=wall, failure_kind=FAILURE_TIMEOUT,
                    attempt=attempts[index],
                )
                error = (
                    "TimeoutError",
                    f"run exceeded the {self.timeout:g}s wall-clock timeout",
                    "",
                    FAILURE_TIMEOUT,
                )
            else:
                error = (
                    "WorkerDied",
                    f"worker process exited unexpectedly after {wall:.1f}s "
                    "(killed by the OS?)",
                    "",
                    FAILURE_CRASH,
                )
            self._finish_attempt(
                requests, results, index, None, error, wall,
                attempts, delayed, outstanding,
            )

    def _finish_attempt(
        self, requests, results, index, metrics, error, wall,
        attempts, delayed, outstanding,
    ) -> None:
        """Settle a finished pool attempt, or schedule its retry."""
        attempt = attempts[index]
        done, kind = self._settle(
            requests, results, index, metrics, error, wall, attempt
        )
        if done:
            outstanding.discard(index)
            return
        attempts[index] = attempt + 1
        delay = self.retry.delay(self._key(index, requests[index]), attempt + 1)
        self._emit(
            RETRYING, index, requests[index],
            attempt=attempt + 1, failure_kind=kind, wall_time=delay,
        )
        heapq.heappush(delayed, (time.monotonic() + delay, index))

    # ------------------------------------------------------------------ #
    # Settlement
    # ------------------------------------------------------------------ #

    def _settle_cancelled(
        self, requests, results, index, attempts: int = 1
    ) -> None:
        request = requests[index]
        results[index] = RunFailure(
            workload=request.workload.name,
            config=request.config.name,
            attack_model=request.attack_model,
            error_type="Cancelled",
            message="sweep interrupted before this cell ran",
            kind=FAILURE_CANCELLED,
            attempts=attempts - 1 if attempts > 1 else 1,
        )
        self._emit(CANCELLED, index, request, failure_kind=FAILURE_CANCELLED)

    def _settle(
        self, requests, results, index, metrics, error, wall_time, attempt
    ) -> tuple[bool, str | None]:
        """Record one attempt's outcome.

        Returns ``(True, kind_or_None)`` when the cell is terminal, or
        ``(False, kind)`` when the failure should be retried.
        """
        request = requests[index]
        if error is None and self.fail_on_unhalted and not metrics.halted:
            error = (
                "BudgetExhausted",
                f"run stopped at {metrics.termination} after "
                f"{metrics.cycles} cycles / {metrics.instructions} "
                "instructions without halting",
                "",
                FAILURE_BUDGET,
            )
        if error is not None:
            error_type, message, trace, kind = error
            if self.retry.should_retry(kind, attempt):
                return False, kind
            failure = RunFailure(
                workload=request.workload.name,
                config=request.config.name,
                attack_model=request.attack_model,
                error_type=error_type,
                message=message,
                traceback=trace,
                kind=kind,
                attempts=attempt,
            )
            results[index] = failure
            if self.journal is not None and self._cacheable(request):
                self.journal.record(self._key(index, request), failure)
            self._emit(
                FAILED, index, request,
                wall_time=wall_time, failure_kind=kind,
                attempt=attempt if attempt > 1 else None,
                error=f"{error_type}: {message}",
            )
            return True, kind
        results[index] = metrics
        if self._cacheable(request):
            if self.cache is not None:
                self.cache.put(request, metrics, self._key(index, request))
            if self.journal is not None:
                self.journal.record(self._key(index, request), metrics)
        self._emit(
            FINISHED, index, request,
            wall_time=wall_time, cycles=metrics.cycles,
            instructions=metrics.instructions,
            attempt=attempt if attempt > 1 else None,
        )
        return True, None

