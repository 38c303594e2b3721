"""Deterministic fault injection for the sweep engine.

The engine's fault tolerance — crash isolation, wall-clock timeout kills,
retry with backoff, failure classification — must be testable without a
real simulator bug.  This module wraps :func:`repro.sim.engine.execute`
with a plan that makes chosen cells crash, hang, or run slowly, on chosen
attempts, deterministically::

    plan = FaultPlan(
        {
            "victim": FaultSpec("crash"),             # crashes every attempt
            "flaky/Hybrid": FaultSpec("crash", times=1),  # fails once, then OK
            "wedged": FaultSpec("hang"),              # sleeps until killed
            "molasses": FaultSpec("slow", seconds=0.2),   # slow but correct
        },
        state_dir=tmp_path,
    )
    with inject(plan):
        outcomes = session.run_many(requests)

Faults are keyed by ``"<workload>"`` or, more specifically,
``"<workload>/<config>"`` (the latter wins).  ``times`` limits how many
*attempts* inject the fault before the cell reverts to real execution —
that is how retry-then-succeed flakiness is modelled.  Attempt counting
works across process boundaries: each injected attempt claims a marker
file in ``state_dir`` with an exclusive create, so forked pool workers,
killed-and-respawned workers, and the in-process serial path all share one
counter.

The patch is installed by plain module-attribute assignment, which the
engine's fork-started workers inherit via copy-on-write.  On platforms
without ``fork`` (Windows/macOS-spawn) the patch does not reach pool
workers — tests that need the pool skip there, exactly like the existing
monkeypatch-based engine tests.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.sim.api import RunMetrics, RunRequest

#: The injectable fault kinds.
CRASH = "crash"
HANG = "hang"
SLOW = "slow"
FAULT_KINDS = frozenset({CRASH, HANG, SLOW})


class InjectedCrash(RuntimeError):
    """The exception an injected ``crash`` raises — a distinct type so
    tests can assert the failure really came from the harness."""


@dataclass(frozen=True)
class FaultSpec:
    """One cell's fault behaviour.

    ``kind``
        ``crash`` raises :class:`InjectedCrash`; ``hang`` sleeps for
        ``seconds`` (default: effectively forever — the engine's timeout
        is expected to kill the worker first) and raises if it survives;
        ``slow`` sleeps ``seconds`` and then runs the real simulation.
    ``times``
        How many attempts inject the fault before the cell reverts to
        real execution; negative means every attempt.  ``times=2`` with a
        retrying engine models a flaky cell that succeeds on attempt 3.
    ``seconds``
        Sleep duration for ``hang``/``slow``.
    """

    kind: str
    times: int = -1
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )


class FaultPlan:
    """Maps sweep cells to :class:`FaultSpec` with cross-process counting.

    ``faults`` keys are ``"<workload>"`` or ``"<workload>/<config>"``; the
    more specific key wins.  ``state_dir`` holds the attempt-claim marker
    files and must be shared by every process of the sweep (a pytest
    ``tmp_path`` is ideal).
    """

    def __init__(self, faults: dict[str, FaultSpec], state_dir: str | Path) -> None:
        self.faults = dict(faults)
        self.state_dir = Path(state_dir)

    def lookup(self, request: RunRequest) -> FaultSpec | None:
        workload = request.workload.name
        specific = self.faults.get(f"{workload}/{request.config.name}")
        if specific is not None:
            return specific
        return self.faults.get(workload)

    def claim(self, request: RunRequest, spec: FaultSpec) -> bool:
        """Atomically claim one injected attempt for this cell.

        Returns ``False`` once ``spec.times`` attempts have been claimed
        (the cell then executes for real).  The claim is an exclusive file
        create, so concurrent workers and respawned processes agree on the
        count without locks.
        """
        if spec.times < 0:
            return True
        slug = (
            f"{request.workload.name}__{request.config.name}__"
            f"{request.attack_model.value}"
        ).replace("/", "_")
        self.state_dir.mkdir(parents=True, exist_ok=True)
        for attempt in range(spec.times):
            marker = self.state_dir / f"{slug}.attempt{attempt}"
            try:
                with open(marker, "x") as fh:
                    fh.write(f"{time.time()}\n")
                return True
            except FileExistsError:
                continue
        return False


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Patch :func:`repro.sim.engine.execute` to follow ``plan``.

    Cells without a fault (or whose fault budget is spent) run the real
    simulation unchanged.  The patch is process-wide for the duration of
    the ``with`` block and is inherited by fork-started pool workers.
    """
    import repro.sim.engine as engine_module

    original = engine_module.execute

    def faulty_execute(request: RunRequest) -> RunMetrics:
        spec = plan.lookup(request)
        if spec is not None and plan.claim(request, spec):
            if spec.kind == CRASH:
                raise InjectedCrash(
                    f"injected crash for {request.workload.name}/"
                    f"{request.config.name}"
                )
            if spec.kind == HANG:
                deadline = time.monotonic() + spec.seconds
                while time.monotonic() < deadline:
                    time.sleep(0.05)
                raise InjectedCrash(
                    f"injected hang for {request.workload.name} survived "
                    f"{spec.seconds:g}s without being killed"
                )
            time.sleep(spec.seconds)  # SLOW: delayed but correct
        return original(request)

    engine_module.execute = faulty_execute
    try:
        yield plan
    finally:
        engine_module.execute = original
