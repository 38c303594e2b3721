"""A shared-memory system: multiple cores over one L3 + directory.

The SPEC evaluation is single-threaded, but Section V-C1's consistency
machinery only matters because *other agents exist*: an Obl-Ld may read a
line the L1 never holds, so a remote store's invalidation would be missed
without validation/exposure.  This module provides the "other agents":

* each core gets its own :class:`~repro.memory.hierarchy.MemoryHierarchy`
  (private L1/L2 + a view of the shared L3),
* one :class:`~repro.memory.coherence.Directory` arbitrates,
* :meth:`SharedMemorySystem.remote_store` performs a store on behalf of
  core ``i`` and delivers invalidations to every sharer's caches *and* its
  pipeline (so consistency checks fire),
* a committed-memory image is shared between all cores, defining the
  single serialization the golden checks can reason about.

The multi-core example and the consistency integration tests drive a victim
core while writer agents mutate its working set through this system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.config import MachineConfig
from repro.memory.coherence import Directory
from repro.memory.hierarchy import MemoryHierarchy

if TYPE_CHECKING:  # pragma: no cover - layering: memory must not need pipeline
    from repro.pipeline.core import Core


@dataclass
class _Agent:
    """One participant: a full core, or a memory-only writer."""

    hierarchy: MemoryHierarchy
    core: "Core | None" = None


class SharedMemorySystem:
    """N agents sharing a directory, an L3 image, and committed memory."""

    def __init__(self, config: MachineConfig | None = None, num_agents: int = 2) -> None:
        if num_agents < 1:
            raise ValueError("need at least one agent")
        self.config = config or MachineConfig()
        self.directory = Directory(num_agents)
        self.shared_memory: dict[int, int | float] = {}
        self._agents: list[_Agent] = [
            _Agent(MemoryHierarchy(self.config, num_cores=num_agents, core_id=i))
            for i in range(num_agents)
        ]

    @property
    def num_agents(self) -> int:
        return len(self._agents)

    def hierarchy(self, agent: int) -> MemoryHierarchy:
        return self._agents[agent].hierarchy

    def attach_core(self, agent: int, core: "Core") -> None:
        """Register a pipeline so invalidations reach its load queue."""
        if core.hierarchy is not self._agents[agent].hierarchy:
            raise ValueError("core must be built on this agent's hierarchy")
        self._agents[agent].core = core
        # The core's committed memory becomes the shared image.
        core.committed.memory = self.shared_memory
        self.shared_memory.update(core.program.initial_memory)

    # ------------------------------------------------------------------ #
    # Coherent accesses on behalf of agents
    # ------------------------------------------------------------------ #

    def agent_load(self, agent: int, addr: int, now: int):
        """A read by ``agent``: directory GetS + local timing access."""
        hierarchy = self._agents[agent].hierarchy
        line = hierarchy.line_of(addr)
        result = self.directory.read(agent, line)
        if result.downgraded_core is not None:
            # Owner writes back; its private copies stay (now Shared).
            pass
        return hierarchy.load(addr, now)

    def remote_store(self, agent: int, addr: int, value: int | float, now: int = 0) -> frozenset[int]:
        """A store by ``agent``: directory GetX; every other sharer is
        invalidated — in its caches and, if a core is attached, in its load
        queue (which is what can trigger a delayed consistency squash).

        Returns the set of agents that received invalidations.
        """
        hierarchy = self._agents[agent].hierarchy
        line = hierarchy.line_of(addr)
        result = self.directory.write(agent, line)
        self.shared_memory[addr] = value
        for victim in result.invalidated_cores:
            target = self._agents[victim]
            if target.core is not None:
                target.core.notify_invalidation(addr)
            else:
                target.hierarchy.external_invalidate(addr)
        hierarchy.store(addr, now)
        return result.invalidated_cores
