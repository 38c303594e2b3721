"""Session policy objects: how runs execute, cache, and journal.

:class:`~repro.sim.api.Session` used to take a dozen ad-hoc keyword
arguments (``jobs``, ``timeout``, ``retries``, ``cache_dir``, ``resume``,
…).  Those knobs are now grouped into three frozen policy dataclasses:

* :class:`ExecutionPolicy` — where and how cells run: worker count,
  per-run wall-clock timeout, retry policy, watchdog window, budget
  classification, and the ``fabric`` scheduler URL that switches the
  session from the in-process pool to the distributed sweep fabric.
* :class:`CachePolicy` — whether and where results are cached on disk.
* :class:`JournalPolicy` — the resumable sweep journal.

Each policy is a frozen :class:`~repro.common.codec.Codec` value, so the
exact same object that configures a local session can travel over the
fabric wire: a scheduler receives the submitting session's
:class:`ExecutionPolicy` and drives server-side retries with the identical
:class:`~repro.sim.engine.RetryPolicy` the local engine would have used.

>>> from repro.sim.api import Session                       # doctest: +SKIP
>>> Session(execution=ExecutionPolicy(jobs=4, retries=2))   # doctest: +SKIP
>>> Session(execution=ExecutionPolicy(fabric="http://host:8700"))  # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

from repro.common.codec import Codec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import RetryPolicy


@dataclass(frozen=True)
class ExecutionPolicy(Codec):
    """How sweep cells are executed.

    ``jobs``
        Worker processes for the in-process pool (``1`` runs serially).
        Ignored when ``fabric`` is set — worker count is then a property of
        the fabric, not the session.
    ``timeout``
        Per-run wall-clock budget in seconds; an exceeding run's worker is
        killed and the cell becomes a ``timeout`` failure.  Travels to
        fabric workers, which enforce it the same way.
    ``retries``
        Extra attempts for transient failures: an int (that many retries
        with default backoff), a full :class:`RetryPolicy`, or ``None`` for
        no retries.  Normalized to a :class:`RetryPolicy` at construction.
    ``hang_window``
        Default forward-progress watchdog window (cycles) for requests
        built by the session.
    ``fabric``
        Scheduler base URL (``http://host:8700``).  When set, sweeps are
        submitted to the distributed fabric instead of the local pool.
    ``fail_on_unhalted``
        Classify budget-exhausted runs as ``budget-exhausted`` failures.
    ``replay``
        Enable the record-once/replay-many execution backend: the session
        keeps a trace store next to its result cache, records each distinct
        architectural trace with the functional ISS before dispatch, and
        cells sharing a trace replay it instead of re-running the ISS per
        commit.  Metrics are bit-identical to live execution.
    ``transport``
        Network-retry knobs for fabric sessions: a
        :class:`~repro.fabric.transport.TransportPolicy` (or its dict form)
        controlling HTTP retry count, backoff, jitter, and the circuit
        breaker.  ``None`` means the transport defaults.  Ignored for
        purely local sessions.
    """

    jobs: int = 1
    timeout: float | None = None
    retries: RetryPolicy | int | None = None
    hang_window: int | None = None
    fabric: str | None = None
    fail_on_unhalted: bool = False
    replay: bool = False
    transport: object | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        # Lazy import: the engine imports repro.sim.api, which imports this
        # module for Session's policy defaults.
        from repro.sim.engine import RetryPolicy

        retries = self.retries
        if retries is None or retries == 0:
            retries = RetryPolicy(max_retries=0)
        elif isinstance(retries, int):
            retries = RetryPolicy(max_retries=retries)
        elif not isinstance(retries, RetryPolicy):
            raise TypeError(
                f"retries must be an int or RetryPolicy, got {type(retries).__name__}"
            )
        object.__setattr__(self, "retries", retries)
        if self.transport is not None:
            # Lazy import: repro.fabric's package __init__ reaches back into
            # repro.sim at import time, so a module-level import here would
            # be circular.
            from repro.fabric.transport import TransportPolicy

            transport = self.transport
            if isinstance(transport, dict):
                transport = TransportPolicy.from_dict(transport)
            elif not isinstance(transport, TransportPolicy):
                raise TypeError(
                    "transport must be a TransportPolicy or dict, got "
                    f"{type(transport).__name__}"
                )
            object.__setattr__(self, "transport", transport)

    @property
    def retry_policy(self) -> RetryPolicy:
        """The normalized retry policy (``retries`` is always one post-init)."""
        return self.retries  # type: ignore[return-value]

    @staticmethod
    def _codec_namespace() -> dict[str, object]:
        # ``RetryPolicy`` is a typing-only import here: the engine imports
        # repro.sim.api, which imports this module.
        from repro.sim.engine import RetryPolicy

        return {"RetryPolicy": RetryPolicy}


@dataclass(frozen=True)
class CachePolicy(Codec):
    """Whether and where run results are cached on disk.

    ``enabled=False`` disables the content-addressed result cache entirely;
    ``cache_dir`` overrides the default ``.repro-cache/`` root.  Paths are
    normalized to strings so the policy serializes cleanly.
    """

    enabled: bool = True
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.cache_dir, Path):
            object.__setattr__(self, "cache_dir", str(self.cache_dir))

    def build(self):
        """Materialize the :class:`~repro.sim.cache.ResultCache` (or None)."""
        if not self.enabled:
            return None
        from repro.sim.cache import ResultCache

        return ResultCache(self.cache_dir or ".repro-cache")


@dataclass(frozen=True)
class JournalPolicy(Codec):
    """The resumable sweep journal.

    ``path`` names the JSONL journal file (``None`` → no journal);
    ``resume`` loads it before running so recorded outcomes replay instead
    of re-executing.  ``resume=True`` without a path is rejected.
    """

    path: str | None = None
    resume: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.path, Path):
            object.__setattr__(self, "path", str(self.path))
        if self.resume and self.path is None:
            raise ValueError("JournalPolicy(resume=True) requires a path")

    def build(self):
        """Materialize the :class:`~repro.sim.cache.SweepJournal` (or None),
        loading it when ``resume`` is set."""
        if self.path is None:
            return None
        from repro.sim.cache import SweepJournal

        journal = SweepJournal(self.path)
        if self.resume:
            journal.load()
        return journal


#: Every policy class, in wire order — the lint wire-schema checker pins
#: their serialized field sets alongside the fabric messages.
POLICY_CLASSES = (ExecutionPolicy, CachePolicy, JournalPolicy)


def policy_field_names(cls) -> tuple[str, ...]:
    """The serialized field names of a policy class (wire-schema surface)."""
    return tuple(f.name for f in fields(cls))
