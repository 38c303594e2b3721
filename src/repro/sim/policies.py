"""Session policy objects: how runs execute, cache, and journal.

:class:`~repro.sim.api.Session` used to take a dozen ad-hoc keyword
arguments (``jobs``, ``timeout``, ``retries``, ``cache_dir``, ``resume``,
…).  Those knobs are now grouped into three frozen policy dataclasses:

* :class:`ExecutionPolicy` — how cells run on the in-process pool: worker
  count, per-run wall-clock timeout, retry policy, watchdog window, budget
  classification and the replay backend.
* :class:`CachePolicy` — whether and where results are cached on disk.
* :class:`JournalPolicy` — the resumable sweep journal.

Each policy is a frozen dataclass that configures one session; none of
them is persisted or serialized.

>>> from repro.sim.api import Session                       # doctest: +SKIP
>>> Session(execution=ExecutionPolicy(jobs=4, retries=2))   # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import RetryPolicy


@dataclass(frozen=True)
class ExecutionPolicy:
    """How sweep cells are executed.

    ``jobs``
        Worker processes for the in-process pool (``1`` runs serially).
    ``timeout``
        Per-run wall-clock budget in seconds; an exceeding run's worker is
        killed and the cell becomes a ``timeout`` failure.
    ``retries``
        Extra attempts for transient failures: an int (that many retries
        with default backoff), a full :class:`RetryPolicy`, or ``None`` for
        no retries.  Normalized to a :class:`RetryPolicy` at construction.
    ``hang_window``
        Default forward-progress watchdog window (cycles) for requests
        built by the session.
    ``fail_on_unhalted``
        Classify budget-exhausted runs as ``budget-exhausted`` failures.
    ``replay``
        Enable the record-once/replay-many execution backend: the session
        keeps a trace store next to its result cache, records each distinct
        architectural trace with the functional ISS before dispatch, and
        cells sharing a trace replay it instead of re-running the ISS per
        commit.  Metrics are bit-identical to live execution.
    """

    jobs: int = 1
    timeout: float | None = None
    retries: RetryPolicy | int | None = None
    hang_window: int | None = None
    fail_on_unhalted: bool = False
    replay: bool = False

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

    @property
    def retry_policy(self) -> RetryPolicy:
        """The normalized retry policy (``retries`` is always one post-init)."""
        return self.retries  # type: ignore[return-value]


@dataclass(frozen=True)
class CachePolicy:
    """Whether and where run results are cached on disk.

    ``enabled=False`` disables the content-addressed result cache entirely;
    ``cache_dir`` overrides the default ``.repro-cache/`` root.  Paths are
    normalized to strings.
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
class JournalPolicy:
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
