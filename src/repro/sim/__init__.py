"""Machine assembly and experiment running.

:mod:`repro.sim.configs` defines the Table II design variants;
:mod:`repro.sim.api` is the simulation API — a frozen
:class:`~repro.sim.api.RunRequest` describes one (workload, configuration,
attack model) run, :func:`~repro.sim.api.execute` simulates it on a freshly
built machine, and a :class:`~repro.sim.api.Session` batches requests
through :mod:`repro.sim.engine`'s worker pool, the content-addressed
:mod:`repro.sim.cache`, and the :mod:`repro.sim.events` observer stream.

Session behaviour is configured by the frozen policy objects in
:mod:`repro.sim.policies`.
"""

from repro.sim.api import (
    FAILURE_BUDGET,
    FAILURE_CANCELLED,
    FAILURE_CRASH,
    FAILURE_HANG,
    FAILURE_KINDS,
    FAILURE_TIMEOUT,
    TRANSIENT_FAILURE_KINDS,
    Instrumentation,
    RunFailure,
    RunMetrics,
    RunRequest,
    Session,
    execute,
)
from repro.sim.cache import ResultCache, SweepJournal, cache_key
from repro.sim.configs import (
    EVALUATED_CONFIGS,
    SDO_CONFIG_NAMES,
    EvaluatedConfig,
    config_by_name,
    make_protection,
)
from repro.sim.engine import RetryPolicy, SweepEngine
from repro.sim.events import JsonlEventLog, ProgressLine, RunEvent, read_events
from repro.sim.policies import CachePolicy, ExecutionPolicy, JournalPolicy

__all__ = [
    "CachePolicy",
    "EVALUATED_CONFIGS",
    "EvaluatedConfig",
    "ExecutionPolicy",
    "FAILURE_BUDGET",
    "FAILURE_CANCELLED",
    "FAILURE_CRASH",
    "FAILURE_HANG",
    "FAILURE_KINDS",
    "FAILURE_TIMEOUT",
    "Instrumentation",
    "JournalPolicy",
    "JsonlEventLog",
    "ProgressLine",
    "ResultCache",
    "RetryPolicy",
    "RunEvent",
    "RunFailure",
    "RunMetrics",
    "RunRequest",
    "SDO_CONFIG_NAMES",
    "Session",
    "SweepEngine",
    "SweepJournal",
    "TRANSIENT_FAILURE_KINDS",
    "cache_key",
    "config_by_name",
    "execute",
    "make_protection",
    "read_events",
]
