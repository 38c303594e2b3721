"""The simulation API: :class:`RunRequest`, :class:`RunMetrics`,
:class:`RunFailure`, and :class:`Session`.

A :class:`RunRequest` is the frozen, self-contained description of one
simulation — workload, Table II configuration, attack model, machine, and
limits.  :func:`execute` turns a request into :class:`RunMetrics` by
building a fresh (core + hierarchy + protection) machine; it is a pure
function of the request, which is what makes sweeps embarrassingly parallel
and results content-addressable.

A :class:`Session` owns the pieces a sweep needs — worker pool size, the
on-disk result cache, and event observers — and offers three entry points:

>>> session = Session(execution=ExecutionPolicy(jobs=4))  # doctest: +SKIP
>>> metrics = session.run(workload, "Hybrid")             # doctest: +SKIP
>>> results = session.sweep(suite())                      # doctest: +SKIP

Session behaviour (worker pool, cache, journal, replay) is
configured by the frozen policy objects in :mod:`repro.sim.policies`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from repro.common.codec import Codec
from repro.common.config import AttackModel, MachineConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import Core
from repro.sim.configs import (
    EVALUATED_CONFIGS,
    EvaluatedConfig,
    config_by_name,
    make_protection,
)
from repro.sim.policies import CachePolicy, ExecutionPolicy, JournalPolicy
from repro.workloads.workload import Workload

if TYPE_CHECKING:
    from repro.sim.cache import ResultCache, SweepJournal
    from repro.sim.events import EventObserver

#: Default commit budget per run (the seed harness's historical default).
DEFAULT_MAX_INSTRUCTIONS = 200_000

#: The failure taxonomy (``RunFailure.kind``).  ``crash`` is any worker
#: exception; ``hang`` is the core watchdog's :class:`SimulationHang`;
#: ``timeout`` is a wall-clock kill by the sweep engine; ``budget-exhausted``
#: is a run that hit its cycle/instruction budget without halting (only a
#: failure when the engine is told to treat it as one); ``cancelled`` is a
#: cell abandoned on SIGINT/SIGTERM before it ran.
FAILURE_CRASH = "crash"
FAILURE_HANG = "hang"
FAILURE_TIMEOUT = "timeout"
FAILURE_BUDGET = "budget-exhausted"
FAILURE_CANCELLED = "cancelled"
FAILURE_KINDS = frozenset(
    {FAILURE_CRASH, FAILURE_HANG, FAILURE_TIMEOUT, FAILURE_BUDGET, FAILURE_CANCELLED}
)
#: Kinds worth retrying by default: a timeout or crash may be environmental
#: (loaded host, OOM-killed worker); a hang or exhausted budget is a
#: deterministic property of the simulation and will simply repeat.
TRANSIENT_FAILURE_KINDS = frozenset({FAILURE_CRASH, FAILURE_TIMEOUT})


@dataclass(frozen=True)
class Instrumentation(Codec):
    """Opt-in observability for a single run.

    ``trace_jsonl``/``trace_konata`` name output files for the cycle trace
    (either or both); ``profile`` turns on wall-time phase profiling whose
    numbers land in ``RunMetrics.stats`` under ``profile.*``.  An *active*
    instrumentation makes the run side-effecting and host-dependent, so the
    engine bypasses the result cache for it in both directions — an
    instrumented run is never served from cache (the trace files must be
    produced) and never stored (profile stats describe this machine only).
    """

    trace_jsonl: str | Path | None = None
    trace_konata: str | Path | None = None
    trace_buffer: int = 4096
    profile: bool = False

    def __post_init__(self) -> None:
        # Paths are held as the strings they travel as, so a round trip is exact.
        for name in ("trace_jsonl", "trace_konata"):
            value = getattr(self, name)
            if isinstance(value, Path):
                object.__setattr__(self, name, str(value))

    @property
    def traced(self) -> bool:
        return self.trace_jsonl is not None or self.trace_konata is not None

    @property
    def active(self) -> bool:
        return self.traced or self.profile


@dataclass(frozen=True)
class RunMetrics(Codec):
    """Results of one simulation run."""

    workload: str
    config: str
    attack_model: AttackModel
    cycles: int
    instructions: int
    stats: dict[str, float] = field(repr=False, default_factory=dict)
    #: Why the run stopped: ``halted`` (clean HALT commit), ``max_cycles``
    #: or ``max_instructions`` (budget exhausted without halting).  Mirrors
    #: ``SimulationResult.termination``; eval tables/figures warn when they
    #: are fed unhalted cells.
    termination: str = "halted"

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def halted(self) -> bool:
        return self.termination == "halted"

    def normalized_to(self, baseline: "RunMetrics") -> float:
        """Execution time normalized to a baseline run (Figure 6's metric).

        Uses cycles-per-instruction so runs that committed slightly different
        instruction counts (e.g. capped runs) stay comparable.
        """
        if self.attack_model is not baseline.attack_model:
            raise ValueError(
                f"cannot normalize across attack models: {self.config}/"
                f"{self.workload} ran under {self.attack_model.value!r} but "
                f"the baseline {baseline.config}/{baseline.workload} ran "
                f"under {baseline.attack_model.value!r}"
            )
        if self.instructions == 0 or baseline.instructions == 0:
            raise ValueError("cannot normalize a run that committed nothing")
        own = self.cycles / self.instructions
        base = baseline.cycles / baseline.instructions
        return own / base

    @property
    def squashes(self) -> float:
        """SDO-induced squashes (Figure 8's x-axis): Obl-Ld fails + Obl-FP
        fails + validation mismatches — branch mispredicts excluded, they
        exist in every configuration."""
        return (
            self.stats.get("core.obl_fail_squashes", 0)
            + self.stats.get("core.fp_fail_squashes", 0)
            + self.stats.get("core.validation_mismatch_squashes", 0)
        )

    @property
    def predictor_precision(self) -> float:
        total = self.stats.get("stt.sdo.predictions", 0)
        return self.stats.get("stt.sdo.precise", 0) / total if total else 0.0

    @property
    def predictor_accuracy(self) -> float:
        total = self.stats.get("stt.sdo.predictions", 0)
        return self.stats.get("stt.sdo.accurate", 0) / total if total else 0.0


@dataclass(frozen=True)
class RunRequest(Codec):
    """Everything needed to simulate one (workload, config, model) cell.

    Frozen: a request is a value.  Two equal requests produce equal metrics
    (simulation is deterministic), which is what the result cache keys on.
    """

    workload: Workload
    config: EvaluatedConfig
    attack_model: AttackModel = AttackModel.SPECTRE
    machine: MachineConfig = field(default_factory=MachineConfig)
    check_golden: bool = True
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
    #: Optional tracing/profiling.  Deliberately NOT part of the cache key
    #: (see ``repro.sim.cache.cache_key``) — it never changes the simulated
    #: outcome; instrumented runs bypass the cache entirely instead.
    instrumentation: Instrumentation | None = None
    #: Forward-progress watchdog window in cycles (``None`` → the core's
    #: default).  Also NOT part of the cache key: the watchdog can only
    #: abort a wedged run, never change the metrics of one that completes.
    hang_window: int | None = None


@dataclass(frozen=True)
class RunFailure(Codec):
    """A run that did not produce metrics.

    The engine converts worker exceptions into these so one bad cell cannot
    kill a whole sweep; the traceback is captured as text because exception
    objects do not reliably cross process boundaries.  ``kind`` classifies
    the failure (see :data:`FAILURE_KINDS`) so retry policies and
    post-mortems can tell a wall-clock timeout from a simulator hang from a
    plain crash; ``attempts`` counts how many executions were tried
    (``> 1`` means retries were exhausted).
    """

    workload: str
    config: str
    attack_model: AttackModel
    error_type: str
    message: str
    traceback: str = field(default="", repr=False)
    kind: str = FAILURE_CRASH
    attempts: int = 1

    def __str__(self) -> str:
        tries = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        return (
            f"{self.workload}/{self.config} ({self.attack_model.value}) "
            f"[{self.kind}{tries}]: {self.error_type}: {self.message}"
        )


#: What a sweep yields per cell.
RunOutcome = Union[RunMetrics, RunFailure]


def execute(request: RunRequest, *, golden=None) -> RunMetrics:
    """Simulate one request on a freshly built machine.

    A fresh core + hierarchy is built per call (no state leaks between
    runs); the workload's warm addresses are pre-loaded first.  The
    ablation knobs on the request machine's protection (``dram_do_variant``,
    ``early_forwarding``) survive the config-derived protection swap, so a
    machine built for an ablation study keeps its meaning.

    If the request carries an active :class:`Instrumentation`, the run is
    additionally traced (cycle trace → JSONL and/or Konata files) and/or
    profiled (``profile.*`` wall-time stats merged into the result).

    ``golden`` injects a commit-time golden reference into the core in
    place of the default functional ISS (see
    :class:`~repro.pipeline.core.GoldenReference`).  The reference is pure
    validation — it can abort a wrong run but never changes the metrics of
    a correct one — so ``repro.replay`` uses this hook to drive the timing
    pipeline from a recorded architectural trace while producing
    bit-identical :class:`RunMetrics`.
    """
    instrumentation = request.instrumentation
    profiler = None
    if instrumentation is not None and instrumentation.profile:
        from repro.analysis.profiler import PhaseProfiler

        profiler = PhaseProfiler()
    tracer = None

    def timed(name):
        if profiler is None:
            return nullcontext()
        return profiler.phase(name)

    with timed("build"):
        knobs = request.machine.protection
        protection_config = replace(
            request.config.protection_config(request.attack_model),
            dram_do_variant=knobs.dram_do_variant,
            early_forwarding=knobs.early_forwarding,
        )
        machine = request.machine.with_protection(protection_config)
        protection = make_protection(
            request.config, request.attack_model, dram_do_variant=knobs.dram_do_variant
        )
        hierarchy = MemoryHierarchy(machine)
        core = Core(
            request.workload.program,
            config=machine,
            protection=protection,
            hierarchy=hierarchy,
            check_golden=request.check_golden,
            golden=golden,
        )
        if instrumentation is not None and instrumentation.traced:
            from repro.analysis.trace import CycleTracer

            tracer = CycleTracer(
                jsonl_path=instrumentation.trace_jsonl,
                konata_path=instrumentation.trace_konata,
                buffer_capacity=instrumentation.trace_buffer,
            ).attach(core)
    with timed("warm"):
        if request.workload.warm_addresses:
            hierarchy.warm(request.workload.warm_addresses)
    try:
        with timed("simulate"):
            result = core.run(
                max_instructions=request.max_instructions,
                max_cycles=request.workload.max_cycles,
                hang_window=request.hang_window,
            )
    finally:
        # Break the core <-> scheme cycle that ``attach`` made, so the
        # machine is freed by refcount when this call returns instead of
        # waiting for the cyclic collector.
        protection.core = None
        if tracer is not None:
            with timed("finalize"):
                tracer.close()
    stats = result.stats
    if profiler is not None:
        stats = dict(stats)
        stats.update(profiler.as_stats(result.cycles, result.instructions))
    return RunMetrics(
        workload=request.workload.name,
        config=request.config.name,
        attack_model=request.attack_model,
        cycles=result.cycles,
        instructions=result.instructions,
        stats=stats,
        termination=result.termination,
    )


#: The on-disk cache under ``.repro-cache/`` (policies are frozen, so one
#: instance can serve as the default for every session).
_DEFAULT_CACHE = CachePolicy()


class Session:
    """Owns the sweep engine, the result cache, and the event observers.

    Behaviour is configured by three frozen policy objects (see
    :mod:`repro.sim.policies`):

    >>> from repro.sim.policies import CachePolicy, ExecutionPolicy  # doctest: +SKIP
    >>> Session(execution=ExecutionPolicy(jobs=4, retries=2))        # doctest: +SKIP
    >>> Session(cache=CachePolicy(enabled=False))                    # doctest: +SKIP

    Parameters
    ----------
    machine:
        Default machine for requests built by this session (Table I if
        omitted); per-request machines override it.
    execution:
        :class:`~repro.sim.policies.ExecutionPolicy` — worker count,
        per-run timeout, retry policy, watchdog window, and the replay
        backend.
    cache:
        :class:`~repro.sim.policies.CachePolicy`, or a ready-made
        :class:`~repro.sim.cache.ResultCache`.  Defaults to the on-disk
        cache under ``.repro-cache/``; anything else raises ``TypeError``.
    journal:
        :class:`~repro.sim.policies.JournalPolicy`, a ready-made
        :class:`~repro.sim.cache.SweepJournal`, or ``None`` (no journal).
        Terminal outcomes are recorded as they settle; ``resume`` replays
        recorded outcomes instead of re-executing their cells.
    observers:
        Callables receiving every :class:`~repro.sim.events.RunEvent`.
    check_golden / max_instructions:
        Defaults for requests built by this session.
    """

    def __init__(
        self,
        machine: MachineConfig | None = None,
        *,
        execution: "ExecutionPolicy | None" = None,
        cache: "CachePolicy | ResultCache" = _DEFAULT_CACHE,
        journal: "JournalPolicy | SweepJournal | None" = None,
        observers: Iterable["EventObserver"] = (),
        check_golden: bool = True,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ) -> None:
        # Imported lazily: the engine and cache depend on the types above.
        from repro.sim.cache import ResultCache, SweepJournal
        from repro.sim.engine import SweepEngine

        self.machine = machine or MachineConfig()
        self.check_golden = check_golden
        self.max_instructions = max_instructions
        self.execution = execution or ExecutionPolicy()
        self.hang_window = self.execution.hang_window

        if isinstance(cache, CachePolicy):
            self.cache_policy = cache
            self.cache: "ResultCache | None" = cache.build()
        elif isinstance(cache, ResultCache):
            # NB: isinstance, not truthiness — an *empty* ResultCache is
            # falsy (__len__).  A ready-made cache stays first-class.
            self.cache_policy = CachePolicy(cache_dir=str(cache.root))
            self.cache = cache
        else:
            raise TypeError(
                f"cache must be a CachePolicy or ResultCache; got {type(cache).__name__}"
            )

        if journal is None or isinstance(journal, JournalPolicy):
            self.journal_policy = journal or JournalPolicy()
            self.journal: "SweepJournal | None" = self.journal_policy.build()
        elif isinstance(journal, SweepJournal):
            self.journal_policy = JournalPolicy(path=str(journal.path))
            self.journal = journal
        else:
            raise TypeError(
                "journal must be a JournalPolicy or SweepJournal; "
                f"got {type(journal).__name__}"
            )

        # The trace store lives next to the result cache so the same root
        # directory carries both content-addressed artifact kinds.
        self.trace_store = None
        if self.execution.replay:
            from repro.replay.store import TraceStore

            if self.cache is not None:
                trace_root = Path(self.cache.root) / "traces"
            else:
                trace_root = (
                    Path(self.cache_policy.cache_dir or ".repro-cache") / "traces"
                )
            self.trace_store = TraceStore(trace_root)

        self.engine = SweepEngine(
            jobs=self.execution.jobs,
            cache=self.cache,
            observers=observers,
            timeout=self.execution.timeout,
            retry=self.execution.retry_policy,
            journal=self.journal,
            fail_on_unhalted=self.execution.fail_on_unhalted,
            trace_store=self.trace_store,
        )
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def add_observer(self, observer: "EventObserver") -> None:
        self.engine.add_observer(observer)

    def close(self) -> None:
        """Release session resources: the sweep journal.  Idempotent — safe
        to call any number of times, including via the context-manager
        protocol *and* explicitly.
        """
        if self._closed:
            return
        self._closed = True
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def request(
        self,
        workload: Workload,
        config: EvaluatedConfig | str,
        attack_model: AttackModel | str = AttackModel.SPECTRE,
        *,
        machine: MachineConfig | None = None,
        check_golden: bool | None = None,
        max_instructions: int | None = None,
        instrumentation: Instrumentation | None = None,
        hang_window: int | None = None,
    ) -> RunRequest:
        """Build a request against the session's defaults.  ``config`` and
        ``attack_model`` accept their string names for convenience."""
        if isinstance(config, str):
            config = config_by_name(config)
        if isinstance(attack_model, str):
            attack_model = AttackModel(attack_model)
        return RunRequest(
            workload=workload,
            config=config,
            attack_model=attack_model,
            machine=machine or self.machine,
            check_golden=(
                self.check_golden if check_golden is None else check_golden
            ),
            max_instructions=(
                self.max_instructions if max_instructions is None else max_instructions
            ),
            instrumentation=instrumentation,
            hang_window=self.hang_window if hang_window is None else hang_window,
        )

    def run(
        self,
        workload: Workload | RunRequest,
        config: EvaluatedConfig | str | None = None,
        attack_model: AttackModel | str = AttackModel.SPECTRE,
        *,
        machine: MachineConfig | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> RunMetrics:
        """Run one cell (through cache and observers) and return its metrics.

        Accepts either a prebuilt :class:`RunRequest` or the
        (workload, config, attack model) triple.  Raises if the run failed.
        """
        if isinstance(workload, RunRequest):
            request = workload
            if instrumentation is not None:
                request = replace(request, instrumentation=instrumentation)
        else:
            if config is None:
                raise TypeError("run() needs a config unless given a RunRequest")
            request = self.request(
                workload,
                config,
                attack_model,
                machine=machine,
                instrumentation=instrumentation,
            )
        [outcome] = self.run_many([request], strict=True)
        return outcome

    def run_many(
        self, requests: Sequence[RunRequest], *, strict: bool = False
    ) -> list[RunOutcome]:
        """Run a batch; results keep request order.

        With ``strict=False`` (default) crashed cells come back as
        :class:`RunFailure` entries; with ``strict=True`` the first failure
        raises ``RuntimeError`` after the whole batch has completed.
        """
        if self._closed:
            raise RuntimeError("Session is closed")
        outcomes = self.engine.run(requests)
        if strict:
            failures = [o for o in outcomes if isinstance(o, RunFailure)]
            if failures:
                summary = "; ".join(str(f) for f in failures[:3])
                if len(failures) > 3:
                    summary += f"; … {len(failures) - 3} more"
                raise RuntimeError(
                    f"{len(failures)}/{len(outcomes)} runs failed: {summary}"
                ) from None
        return outcomes

    def sweep(
        self,
        workloads: Sequence[Workload],
        configs: Sequence[EvaluatedConfig] = EVALUATED_CONFIGS,
        attack_models: Sequence[AttackModel] = (
            AttackModel.SPECTRE,
            AttackModel.FUTURISTIC,
        ),
        *,
        machine: MachineConfig | None = None,
        strict: bool = True,
    ) -> list[RunOutcome]:
        """The full evaluation grid: every (model, workload, config) cell.

        Result order is deterministic — attack models outermost, then
        workloads, then configs — regardless of worker count or cache hits.
        """
        requests = [
            self.request(workload, config, attack_model, machine=machine)
            for attack_model in attack_models
            for workload in workloads
            for config in configs
        ]
        return self.run_many(requests, strict=strict)


def _rebrand(outcome: RunOutcome, request: RunRequest) -> RunOutcome:
    """Stamp a stored outcome with the request's workload name.

    The cache and the journal are both content-addressed on the *semantic*
    inputs, which leave out the workload's name and description.  A renamed
    but otherwise identical workload hits the same entry, so the workload
    name on the returned metrics or failure must come from the request, not
    from whoever stored it.  The config (its name included) and the attack model are in the
    key, so a hit already carries the request's.
    """
    if outcome.workload == request.workload.name:
        return outcome
    return replace(outcome, workload=request.workload.name)
