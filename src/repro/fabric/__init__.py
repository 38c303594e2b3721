"""The distributed sweep fabric: scheduler service + worker agents.

A sweep that outgrows one machine goes through three cooperating pieces,
all speaking the versioned HTTP/JSON API in :mod:`repro.fabric.wire` over
the Python standard library only (``http.server`` / ``http.client`` — no
new dependencies):

* :mod:`repro.fabric.scheduler` — the scheduler service.  Accepts sweep
  submissions (``POST /v1/sweeps``), hands cells to workers under
  heartbeat-renewed leases (``POST /v1/cells/claim``), re-queues expired
  leases, drives server-side retries with the submitter's
  :class:`~repro.sim.engine.RetryPolicy`, and fronts the shared artifact
  store (a CRC-checked :class:`~repro.sim.cache.ResultCache` keyed by
  content hash).
* :mod:`repro.fabric.queue` — the durable cell queue behind the scheduler:
  a :class:`~repro.common.durable.JsonlLog` (the sweep journal format,
  generalized) that survives ``kill -9`` and resumes without re-running
  completed cells.
* :mod:`repro.fabric.worker` — the worker agent: claims cells, answers
  them from its local cache or the scheduler's artifact store, executes
  misses through a one-cell :class:`~repro.sim.engine.SweepEngine` (same
  timeout/hang/crash classification as local runs), heartbeats while
  executing, and reports completion.
* :mod:`repro.fabric.client` — the session-side client.
  ``Session(execution=ExecutionPolicy(fabric="http://host:8700"))`` routes
  ``sweep()``/``run_many()`` through it transparently; scheduler events
  stream back into the session's normal observer pipeline.

Start a fabric from the command line::

    repro fabric serve --port 8700 --cache-dir /shared/cache
    repro fabric work http://scheduler:8700        # on each worker host
    repro sweep --fabric http://scheduler:8700     # submit the evaluation
"""

from repro.fabric.client import FabricClient, FabricError
from repro.fabric.queue import CellRecord, FabricQueue
from repro.fabric.scheduler import FabricScheduler, serve
from repro.fabric.wire import WIRE_SCHEMA_VERSION, decode_outcome, encode_outcome
from repro.fabric.worker import WorkerAgent

__all__ = [
    "CellRecord",
    "FabricClient",
    "FabricError",
    "FabricQueue",
    "FabricScheduler",
    "WIRE_SCHEMA_VERSION",
    "WorkerAgent",
    "decode_outcome",
    "encode_outcome",
    "serve",
]
