"""sdolint: repo-specific static invariant checking.

An AST-based checker suite for the invariants this reproduction relies on
but Python cannot express in types: data-oblivious code must not let
operand data reach timing decisions (``oblivious-timing``), the stat-key
namespace must be statically knowable and consistent with the golden
fixture (``stat-key``), the simulation core must stay deterministic
(``determinism``), and the run-event vocabulary must stay closed
(``event-schema``).

Entry points: ``repro lint`` (see :mod:`repro.lint.cli`) or
:func:`repro.lint.engine.run_lint` programmatically.  Findings ratchet
against a committed baseline (:mod:`repro.lint.baseline`) and individual
lines opt out with ``# sdolint: disable=<checker-id>``.
"""

from repro.lint.baseline import Baseline
from repro.lint.checkers import CHECKERS
from repro.lint.context import LintContext
from repro.lint.engine import LintResult, load_context, run_lint
from repro.lint.findings import ERROR, WARNING, Finding
from repro.lint.source import SourceFile

__all__ = [
    "Baseline",
    "CHECKERS",
    "ERROR",
    "Finding",
    "LintContext",
    "LintResult",
    "SourceFile",
    "WARNING",
    "load_context",
    "run_lint",
]
