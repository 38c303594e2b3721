"""The hook interface between the pipeline and a protection scheme.

The pipeline is substrate; Unsafe/STT/STT+SDO are policies over it.  A
:class:`ProtectionScheme` decides, per uop:

* how taint is assigned and propagated at rename,
* whether a ready load may issue normally, must be delayed (STT,
  delay-on-miss), should issue as an oblivious load at some predicted level
  (SDO), or should issue transparently into the speculative buffer
  (SpecBox-style label-based speculation),
* whether a ready FP transmitter may issue normally, must be delayed
  (STT{ld+fp}), or issues on the statically predicted fast path (SDO),
* whether a resolved branch may *apply* its resolution (STT's
  resolution-based implicit channel rule), and
* when a given taint root is safe (the untaint frontier).

``UnsafeProtection`` is the do-nothing baseline ("an unmodified insecure
processor", Table II).  STT lives in ``repro.stt``; SDO in ``repro.core``;
the competing published baselines (SpecBox-style transparent speculation,
delay-on-miss) in ``repro.baselines``.

The core consumes these decisions through its *issue gate*: every
:class:`LoadIssueAction` maps to exactly one core-side issue path
(``Core._try_issue_load``), so a new scheme only returns a different
action — it never patches core plumbing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.config import MemLevel
from repro.common.stats import StatGroup

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.pipeline.core import Core
    from repro.pipeline.uop import DynInst


class LoadIssueAction(enum.Enum):
    NORMAL = "normal"
    OBLIVIOUS = "oblivious"
    DELAY = "delay"
    #: Execute now, but confine all cache-state side effects to the
    #: hierarchy's speculative buffer until the load commits (SpecBox-style
    #: transparent speculation).
    BUFFERED = "buffered"


class FpIssueAction(enum.Enum):
    NORMAL = "normal"
    PREDICT_FAST = "predict_fast"
    DELAY = "delay"


@dataclass(frozen=True)
class IssueDecision:
    action: LoadIssueAction
    predicted_level: MemLevel | None = None  # set iff action is OBLIVIOUS


#: The decisions that carry no predicted level, shared: a hook returns one
#: of these instead of building a new frozen dataclass per issue attempt.
ISSUE_NORMAL = IssueDecision(LoadIssueAction.NORMAL)
ISSUE_DELAY = IssueDecision(LoadIssueAction.DELAY)
ISSUE_BUFFERED = IssueDecision(LoadIssueAction.BUFFERED)

#: Decision-counter names.  The core tallies decisions in plain ints on the
#: hot path and publishes them under these names when a run ends.
LOAD_DECISION_COUNTERS = {
    LoadIssueAction.NORMAL: "load_normal",
    LoadIssueAction.OBLIVIOUS: "load_oblivious",
    LoadIssueAction.DELAY: "load_delay",
    LoadIssueAction.BUFFERED: "load_buffered",
}
FP_DECISION_COUNTERS = {
    FpIssueAction.NORMAL: "fp_normal",
    FpIssueAction.PREDICT_FAST: "fp_predict_fast",
    FpIssueAction.DELAY: "fp_delay",
}

_FP_NORMAL = FpIssueAction.NORMAL


class ProtectionScheme:
    """Base class: the insecure machine.  Subclasses override the hooks.

    Every scheme carries ``decision_stats``, a counter bag of the
    *outcome* of each policy consultation (one count per issue attempt, so
    a load delayed for N cycles counts N ``load_delay`` decisions — the
    same convention as ``core.load_delay_cycles``).  The core tallies the
    issue decisions in plain ints and publishes them when a run ends.  The
    counters surface in ``RunMetrics.stats`` under ``protection.decisions.*``
    and let the observability layer attribute issue-stage behaviour to the
    policy without re-deriving it from timing.
    """

    name = "Unsafe"

    #: Whether the scheme's hooks are pure functions of pipeline state:
    #: ``begin_cycle`` must be idempotent over a frozen pipeline and the
    #: issue decisions must not depend on the cycle number, so that a
    #: stalled cycle can be replayed in closed form by the core's
    #: fast-forward.  Every in-tree scheme qualifies (taint, frontiers and
    #: location predictions are all state-, not time-, driven); a scheme
    #: that keeps cycle-indexed state must set this ``False`` to force the
    #: naive per-cycle loop.
    supports_fast_forward = True

    def __init__(self) -> None:
        self.core: "Core | None" = None
        self.decision_stats = StatGroup("decisions")

    def attach(self, core: "Core") -> None:
        """Called once by the core after construction."""
        self.core = core

    # --- taint ---------------------------------------------------------- #

    def on_rename(self, uop: "DynInst") -> None:
        """Assign taint roots to ``uop`` and its destination register."""

    def is_root_safe(self, root_seq: int) -> bool:
        """Has root ``root_seq`` reached its visibility point?"""
        return True

    def sources_tainted(self, uop: "DynInst") -> bool:
        """Is any source operand of ``uop`` currently tainted?"""
        return False

    def output_safe(self, uop: "DynInst") -> bool:
        """Is ``uop``'s own output untainted (event C for loads)?"""
        return True

    # --- issue policy ---------------------------------------------------- #

    def load_issue_decision(self, uop: "DynInst") -> IssueDecision:
        return ISSUE_NORMAL

    def fp_issue_decision(self, uop: "DynInst") -> FpIssueAction:
        return _FP_NORMAL

    # --- implicit channels ------------------------------------------------ #

    def may_resolve_branch(self, uop: "DynInst") -> bool:
        """May this branch's resolution (squash/predictor update) be applied
        now?  STT delays it until the predicate is untainted."""
        return True

    # --- lifecycle notifications ------------------------------------------ #

    def begin_cycle(self, cycle: int) -> None:
        """Called at the top of every cycle (frontier recomputation)."""

    def on_complete(self, uop: "DynInst") -> None:
        """A uop produced its result."""

    def on_commit(self, uop: "DynInst") -> None:
        """A uop retired."""

    def on_squash(self, uop: "DynInst") -> None:
        """A uop was squashed."""

    def on_load_outcome(self, uop: "DynInst", actual_level: MemLevel) -> None:
        """The true residence level of a protected load became known
        (location-predictor training hook, Section V-C3)."""


class UnsafeProtection(ProtectionScheme):
    """Explicit alias for readability at call sites."""


#: The notification hooks whose :class:`ProtectionScheme` versions do
#: nothing.  The core binds each one once, when the scheme is attached (see
#: :func:`defined_hook`), and never calls one the scheme does not define.
LIFECYCLE_HOOKS = (
    "on_rename",
    "begin_cycle",
    "on_complete",
    "on_commit",
    "on_squash",
    "on_load_outcome",
)


def defined_hook(scheme: ProtectionScheme, name: str):
    """``scheme``'s bound lifecycle hook ``name``, or ``None`` when the
    scheme inherits the no-op from :class:`ProtectionScheme` unchanged (so
    the caller can skip the call).  Compared as the base class's attribute
    *now*, so a wrapper installed on the base class counts as inherited."""
    hook = getattr(scheme, name)
    if getattr(hook, "__func__", None) is getattr(ProtectionScheme, name):
        return None
    return hook
