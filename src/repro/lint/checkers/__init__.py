"""Checker registry.

A checker is a module exposing ``CHECKER_ID`` (the id used in findings,
suppressions and ``--select``) and ``run(ctx) -> Iterable[Finding]``.  The
engine runs every registered checker unless told otherwise.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.lint.checkers import (
    determinism,
    event_schema,
    oblivious_timing,
    stat_key,
)
from repro.lint.context import LintContext
from repro.lint.findings import Finding

_MODULES = (oblivious_timing, stat_key, determinism, event_schema)

CHECKERS: dict[str, Callable[[LintContext], Iterable[Finding]]] = {
    module.CHECKER_ID: module.run for module in _MODULES
}

__all__ = ["CHECKERS"]
