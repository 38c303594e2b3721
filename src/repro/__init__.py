"""repro — Speculative Data-Oblivious Execution (SDO, ISCA 2020) in Python.

A full reproduction of Yu et al.'s SDO on a from-scratch simulation stack:
a speculative out-of-order core, a banked/sliced cache hierarchy, STT
taint tracking, and the SDO framework (Obl-Ld + location predictors +
Obl-FP) on top.  See README.md for the tour, DESIGN.md for the system
inventory, EXPERIMENTS.md for paper-vs-measured results.

The most useful entry points:

>>> from repro import ExecutionPolicy, Session, config_by_name, suite
>>> session = Session(execution=ExecutionPolicy(jobs=4))  # doctest: +SKIP
>>> metrics = session.run(suite()[1], "Hybrid")           # doctest: +SKIP
>>> results = session.sweep(suite())                      # doctest: +SKIP
>>> from repro.security import run_spectre_v1
>>> run_spectre_v1("Unsafe").leaked                       # doctest: +SKIP
True
"""

from repro.common.config import AttackModel, MachineConfig, MemLevel
from repro.sim.api import RunFailure, RunMetrics, RunRequest, Session, execute
from repro.sim.configs import EVALUATED_CONFIGS, config_by_name
from repro.sim.policies import CachePolicy, ExecutionPolicy, JournalPolicy
from repro.workloads.spec17 import suite

__version__ = "1.2.0"

__all__ = [
    "AttackModel",
    "CachePolicy",
    "EVALUATED_CONFIGS",
    "ExecutionPolicy",
    "JournalPolicy",
    "MachineConfig",
    "MemLevel",
    "RunFailure",
    "RunMetrics",
    "RunRequest",
    "Session",
    "config_by_name",
    "execute",
    "suite",
    "__version__",
]
