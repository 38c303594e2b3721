"""In-memory span tracing of the simulator's public layer boundaries.

:class:`SpanTracer` wraps public functions and methods of the ``repro``
modules from the outside (nothing inside the program changes) and records
one span per call: name, start, end, parent span and cell id.  Spans live
in flat arrays while the traced pass runs and are written out once, when
the benchmark ends.  Self time is a span's duration minus the time its
direct children cover.

Each wrapped boundary belongs to a *group*; a call made while the innermost
open span is of the same group is not recorded, so a layer's counts are
the calls made into it from outside (``MemoryHierarchy.store`` delegating
to ``load``, or a scheme's hook calling ``super()``, count once).
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Boundary:
    """One wrapped callable: ``owner.attr`` recorded as span ``name``.

    ``cell_arg`` is the position of a :class:`~repro.sim.api.RunRequest`
    argument that identifies the cell (``None``: inherit the open cell).
    ``group`` defaults to ``name``.
    """

    owner: object
    attr: str
    name: str
    cell_arg: int | None = None
    group: str | None = None


#: Public hooks of ``ProtectionScheme`` that the core calls.
PROTECTION_HOOKS = (
    "on_rename",
    "is_root_safe",
    "sources_tainted",
    "output_safe",
    "load_issue_decision",
    "fp_issue_decision",
    "may_resolve_branch",
    "begin_cycle",
    "on_complete",
    "on_commit",
    "on_squash",
    "on_load_outcome",
)

MEMORY_OPS = ("load", "oblivious_load", "speculative_load", "validate", "expose", "store")


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def layer_boundaries() -> list[Boundary]:
    """Every boundary the benchmark traces, by layer."""
    import repro.replay.recorder as recorder
    import repro.replay.replayer as replayer
    import repro.replay.trace as trace
    import repro.sim.api as api
    import repro.sim.cache as cache
    import repro.sim.configs  # noqa: F401  (imports every protection scheme)
    import repro.sim.engine as engine
    from repro.isa.iss import Interpreter
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.pipeline.core import Core
    from repro.pipeline.protection import ProtectionScheme
    from repro.replay.store import TraceStore

    found = [
        # Where a module imported a function by name, that name is wrapped too.
        Boundary(api, "execute", "execute", 0),
        Boundary(engine, "execute", "execute", 0),
        Boundary(api, "make_protection", "build.protection"),
        Boundary(Core, "__init__", "build.core"),
        Boundary(MemoryHierarchy, "__init__", "build.hierarchy"),
        Boundary(MemoryHierarchy, "warm", "memory.warm"),
        Boundary(Core, "run", "core.run"),
        Boundary(Core, "step", "core.step"),
        Boundary(cache, "cache_key", "cache.key", 0),
        Boundary(engine, "cache_key", "cache.key", 0),
        Boundary(cache.ResultCache, "get", "cache.get", 1),
        Boundary(cache.ResultCache, "put", "cache.put", 1),
        Boundary(recorder, "record_trace", "replay.record", 0),
        Boundary(trace, "trace_key", "replay.trace_key", 0),
        Boundary(replayer, "trace_key", "replay.trace_key", 0),
        Boundary(replayer, "replay_execute", "replay.execute", 0),
        Boundary(TraceStore, "get", "replay.store_get"),
        Boundary(TraceStore, "put", "replay.store_put"),
        Boundary(Interpreter, "step", "golden.iss_step"),
        Boundary(trace.TraceCursor, "step", "golden.cursor_step"),
    ]
    found += [
        Boundary(MemoryHierarchy, op, f"memory.{op}", group="memory") for op in MEMORY_OPS
    ]
    for cls in _subclasses(ProtectionScheme):
        for hook in PROTECTION_HOOKS:
            if hook in vars(cls):
                found.append(Boundary(cls, hook, f"protection.{hook}", group="protection"))
    return found


class SpanTracer:
    """Records spans for the calls through a set of :class:`Boundary`."""

    def __init__(self, boundaries: list[Boundary]) -> None:
        self.boundaries = boundaries
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.cell = array("l")
        self.name = array("H")
        self._stack: list[int] = []
        self._stack_groups: list[str] = []
        self._cells: dict[int, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def set_cells(self, requests) -> None:
        """Cell ids are positions in ``requests`` (matched by identity)."""
        self._cells = {id(request): index for index, request in enumerate(requests)}

    def _wrap(self, func, name: str, group: str, cell_arg: int | None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        stack, groups = self._stack, self._stack_groups
        start, end, parent, cell, names = (
            self.start, self.end, self.parent, self.cell, self.name,
        )
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if groups and groups[-1] == group:
                return func(*args, **kwargs)
            index = len(start)
            if cell_arg is not None and len(args) > cell_arg:
                cell_id = self._cells.get(id(args[cell_arg]), -1)
            else:
                cell_id = cell[stack[-1]] if stack else -1
            parent.append(stack[-1] if stack else -1)
            cell.append(cell_id)
            names.append(name_id)
            end.append(0.0)
            stack.append(index)
            groups.append(group)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
                groups.pop()

        return traced

    def __enter__(self) -> "SpanTracer":
        """Wrap every boundary (each is an attribute its owner defines)."""
        for b in self.boundaries:
            original = vars(b.owner)[b.attr]
            self._saved.append((b.owner, b.attr, original))
            wrapped = self._wrap(original, b.name, b.group or b.name, b.cell_arg)
            setattr(b.owner, b.attr, wrapped)
        return self

    def __exit__(self, *_exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #

    def self_times(self) -> list[float]:
        """Per-span duration minus the time covered by direct children."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        own = list(durations)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= durations[index]
        return own

    def totals(self, key=None) -> dict:
        """``{group_key: [calls, total_s, self_s]}``; the key is the span
        name, or ``key(name, cell)`` when given."""
        own = self.self_times()
        names = self.names
        out: dict = {}
        for index, name_id in enumerate(self.name):
            name = names[name_id]
            group_key = name if key is None else key(name, self.cell[index])
            entry = out.get(group_key)
            if entry is None:
                entry = out[group_key] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += self.end[index] - self.start[index]
            entry[2] += own[index]
        return out

    def write(self, path: Path, cell_labels: list[str]) -> None:
        """One JSON header line, then the raw columns in header order."""
        columns = (
            ("start", self.start), ("end", self.end), ("parent", self.parent),
            ("cell", self.cell), ("name", self.name),
        )
        header = {
            "spans": len(self),
            "names": self.names,
            "cells": cell_labels,
            "columns": [[label, col.typecode, col.itemsize] for label, col in columns],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                handle.write(col.tobytes())
