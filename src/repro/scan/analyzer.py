"""Speculative-taint dataflow over bounded mispredict windows.

The static model mirrors the dynamic STT taint discipline
(:mod:`repro.stt.protection`): data is *secret* exactly when it was
produced by a load that executed under an unresolved conditional branch,
and it *leaks* when such data reaches an operand that modulates hardware
resource usage — a load address, a store address, or a variable-latency
FP operation (``fmul``/``fdiv``/``fsqrt``; Definition 2 of the paper).

For every conditional branch the analyzer walks *both* outgoing
directions — a predictor can be trained onto either — up to ``window``
instructions deep, the ROB-depth horizon past an unresolved branch
(default: ``CoreConfig.rob_entries``).  Within the window:

* every LOAD/FLOAD result is a taint **source** (tagged with its pc; an
  already-tainted address folds its sources into the result, so two-hop
  chains report the full chain);
* ALU/FP ops **propagate** the union of their operands' taint;
* LI/FLI (immediate writes) **kill** the destination's taint;
* taint reaching a load's address register is a **v1** gadget, a store's
  address register a **v1.1** gadget, and an FP transmitter's operand a
  **latency** gadget.  Store *values* and branch operands are not sinks:
  in the modelled machine stores touch memory at commit (squashed stores
  leave no trace) and branch resolution is not priced by operand value.

Soundness scope (see DESIGN.md §11): taint through *memory* is not
tracked — a speculative store forwarding secret data to a younger load
inside the same window is invisible to this analysis.  The corpus pins
that gap with an annotated entry rather than pretending it is closed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.common.config import CoreConfig
from repro.isa.instructions import Opcode
from repro.isa.program import Program
from repro.lint.findings import ERROR, Finding
from repro.scan.cfg import build_cfg, successors

#: Gadget classes, named after the Spectre variant taxonomy.
CLASS_V1 = "v1"  #: tainted load address (load-to-load transmit)
CLASS_STORE = "v1.1"  #: tainted store address (store-based transmit)
CLASS_LATENCY = "latency"  #: tainted variable-latency FP operand
GADGET_CLASSES = (CLASS_V1, CLASS_STORE, CLASS_LATENCY)

#: Default speculative-window horizon: an unresolved branch can shadow at
#: most a ROB's worth of younger instructions.
DEFAULT_WINDOW = CoreConfig().rob_entries

_EMPTY: frozenset[int] = frozenset()
_KILL_OPS = frozenset({Opcode.LI, Opcode.FLI})


@dataclass(frozen=True, order=True)
class Gadget:
    """One statically-found speculative leak path.

    ``source_pcs`` are the window loads whose data reaches the sink at
    ``sink_pc``; ``depth`` is the sink's distance (in instructions walked,
    1-based) past the branch at ``branch_pc``.
    """

    gadget_class: str
    sink_pc: int
    source_pcs: tuple[int, ...]
    branch_pc: int
    depth: int

    def describe(self, program: Program) -> str:
        sources = ", ".join(
            f"{program[pc].opcode.mnemonic}@{pc}" for pc in self.source_pcs
        )
        sink = program[self.sink_pc].opcode.mnemonic
        return (
            f"{self.gadget_class} gadget: speculative load data from "
            f"[{sources}] reaches {sink}@{self.sink_pc}, {self.depth} "
            f"instructions past the branch at pc {self.branch_pc}"
        )


@dataclass
class ScanReport:
    """All gadgets of one program, deduplicated and deterministically ordered."""

    program: Program
    window: int
    gadgets: tuple[Gadget, ...]
    #: Synthetic repo-relative path used for findings/suppressions; defaults
    #: to ``programs/<name>`` so fingerprints are stable across hosts.
    path: str = ""

    def __post_init__(self) -> None:
        if not self.path:
            self.path = f"programs/{self.program.name}"

    @property
    def is_positive(self) -> bool:
        return bool(self.gadgets)

    @property
    def classes(self) -> frozenset[str]:
        return frozenset(g.gadget_class for g in self.gadgets)

    def to_findings(self) -> list[Finding]:
        """Render gadgets through the lint finding model.

        The line number is the sink pc + 1 (1-based, like source lines);
        the fingerprint hangs off checker+path+message, so renumbering a
        program shifts lines without invalidating a baseline only if the
        pcs embedded in the message are unchanged — by design: moving a
        gadget *is* a new finding.
        """
        return [
            Finding(
                path=self.path,
                line=gadget.sink_pc + 1,
                checker=f"gadget-{gadget.gadget_class}",
                message=gadget.describe(self.program),
                severity=ERROR,
            )
            for gadget in self.gadgets
        ]


@dataclass
class _WindowState:
    """Mutable exploration bookkeeping for one branch's window walk."""

    #: pc -> [(taint-pairs, remaining budget)] already explored; a new visit
    #: is redundant if some prior visit had at least as much budget and at
    #: least as much taint (its findings are a superset).
    seen: dict[int, list[tuple[frozenset[tuple[int, int]], int]]] = field(
        default_factory=dict
    )
    found: list[Gadget] = field(default_factory=list)


def _taint_of(taint: dict[int, frozenset[int]], reg: int | None) -> frozenset[int]:
    if reg is None:
        return _EMPTY
    return taint.get(reg, _EMPTY)


def _explore_window(
    program: Program, branch_pc: int, window: int
) -> list[Gadget]:
    """Walk both directions of the branch at ``branch_pc`` up to ``window``."""
    state = _WindowState()
    work: deque[tuple[int, dict[int, frozenset[int]], int]] = deque(
        (succ, {}, window) for succ in successors(program, branch_pc)
    )
    while work:
        pc, taint, budget = work.popleft()
        if budget <= 0:
            continue
        pairs = frozenset(
            (reg, src) for reg, sources in taint.items() for src in sources
        )
        visits = state.seen.setdefault(pc, [])
        if any(
            old_budget >= budget and pairs <= old_pairs
            for old_pairs, old_budget in visits
        ):
            continue
        visits.append((pairs, budget))

        inst = program[pc]
        depth = window - budget + 1
        if inst.is_load:
            address_taint = _taint_of(taint, inst.rs1)
            if address_taint:
                state.found.append(
                    Gadget(CLASS_V1, pc, tuple(sorted(address_taint)),
                           branch_pc, depth)
                )
        elif inst.is_store:
            address_taint = _taint_of(taint, inst.rs2)
            if address_taint:
                state.found.append(
                    Gadget(CLASS_STORE, pc, tuple(sorted(address_taint)),
                           branch_pc, depth)
                )
        elif inst.is_fp_transmitter:
            operand_taint = _taint_of(taint, inst.rs1) | _taint_of(
                taint, inst.rs2
            )
            if operand_taint:
                state.found.append(
                    Gadget(CLASS_LATENCY, pc, tuple(sorted(operand_taint)),
                           branch_pc, depth)
                )

        new_taint = taint
        if inst.is_load:
            # The load's own result is a fresh source; a tainted address
            # folds its provenance in (two-hop chains keep the whole chain).
            new_taint = dict(taint)
            new_taint[inst.rd] = frozenset({pc}) | _taint_of(taint, inst.rs1)
        elif inst.opcode in _KILL_OPS:
            if _taint_of(taint, inst.rd):
                new_taint = dict(taint)
                del new_taint[inst.rd]
        elif inst.rd is not None:
            operand_taint = _taint_of(taint, inst.rs1) | _taint_of(
                taint, inst.rs2
            )
            if operand_taint != _taint_of(taint, inst.rd):
                new_taint = dict(taint)
                if operand_taint:
                    new_taint[inst.rd] = operand_taint
                else:
                    del new_taint[inst.rd]

        for succ in successors(program, pc):
            work.append((succ, new_taint, budget - 1))
    return state.found


def scan_program(
    program: Program, window: int = DEFAULT_WINDOW, path: str = ""
) -> ScanReport:
    """Scan one program; returns every gadget class/sink/source combination.

    The same sink can fire under several branches (nested windows); only
    the tightest enclosure is kept — one gadget per
    ``(class, sink, sources)``, with the smallest depth and then the
    smallest branch pc as tie-breakers.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    cfg = build_cfg(program)
    best: dict[tuple[str, int, tuple[int, ...]], Gadget] = {}
    for branch_pc in cfg.conditional_branch_pcs:
        for gadget in _explore_window(program, branch_pc, window):
            key = (gadget.gadget_class, gadget.sink_pc, gadget.source_pcs)
            old = best.get(key)
            if old is None or (gadget.depth, gadget.branch_pc) < (
                old.depth, old.branch_pc
            ):
                best[key] = gadget
    gadgets = tuple(
        sorted(best.values(), key=lambda g: (g.sink_pc, g.gadget_class,
                                             g.source_pcs))
    )
    return ScanReport(program=program, window=window, gadgets=gadgets,
                      path=path)
