"""The fabric worker agent: claim, resolve, simulate, report.

A worker is a loop around four steps:

1. **Claim** a cell lease (``POST /v1/cells/claim``).
2. **Resolve cheaply** if possible: first the worker's own local
   :class:`~repro.sim.cache.ResultCache`, then the scheduler's shared
   artifact store (``GET /v1/artifacts/<key>``).  Either hit is reported
   as a completion without running the simulator — and an artifact-store
   hit is written into the local cache on the way through.
3. **Execute** misses through a one-cell
   :class:`~repro.sim.engine.SweepEngine` with the cell's wall-clock
   timeout, so kill/hang/timeout classification is byte-for-byte the same
   as a local run.  A background thread heartbeats the lease while the
   simulation runs.
4. **Report** the terminal outcome (``POST /v1/cells/<key>/complete``);
   the scheduler decides retry-vs-settle.

The agent is deliberately stateless across cells: a worker crash loses at
most the cell it was executing, which the scheduler re-queues when the
lease expires.  For the crash-restart acceptance test, setting the
``REPRO_FABRIC_EXEC_LOG`` environment variable makes every *real*
execution (not cache or artifact hits) append a ``{"key", "worker"}``
record to that JSONL log — the test asserts no key appears after a
scheduler restart that was already done before it.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from pathlib import Path

from repro.common.durable import JsonlLog
from repro.fabric.transport import (
    FabricError,
    RetryingTransport,
    TransportPolicy,
)
from repro.fabric.wire import encode_outcome, envelope, payload_crc32
from repro.sim.api import RunRequest
from repro.sim.cache import ResultCache

#: Environment variable naming the execution-ledger file (testing hook).
EXEC_LOG_ENV = "REPRO_FABRIC_EXEC_LOG"

#: How long a worker keeps re-trying to deliver a finished result while the
#: scheduler is unreachable (a restart window), before abandoning the cell
#: to lease expiry.
COMPLETE_RETRY_SECONDS = 30.0


class WorkerAgent:
    """One worker process's claim/execute/report loop.

    ``max_idle_seconds`` bounds how long the agent keeps polling an empty
    (or unreachable) scheduler before :meth:`run_forever` returns — the
    natural shutdown for batch deployments and tests.  ``None`` polls
    forever (the ``repro fabric work`` default).
    """

    def __init__(
        self,
        url: str,
        *,
        cache_dir: str | Path | None = None,
        worker_id: str | None = None,
        poll_interval: float = 0.25,
        max_idle_seconds: float | None = None,
        request_timeout: float = 10.0,
        transport_policy: TransportPolicy | None = None,
    ) -> None:
        self.transport_policy = transport_policy or TransportPolicy()
        self.transport = RetryingTransport(
            url, timeout=request_timeout, policy=self.transport_policy
        )
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        # Architectural traces share the cache root: a worker that keeps a
        # result cache automatically keeps trace recordings beside it, so
        # repeat cells over the same workload replay instead of re-running
        # the functional ISS per commit.
        self.trace_store = None
        if cache_dir is not None:
            from repro.replay.store import TraceStore

            self.trace_store = TraceStore(Path(cache_dir) / "traces")
        self.poll_interval = poll_interval
        self.max_idle_seconds = max_idle_seconds
        self.stats = {
            "claims": 0,
            "executed": 0,
            "local_cache_hits": 0,
            "artifact_hits": 0,
            "trace_replays": 0,
            "delivery_failures": 0,
            "network_errors": 0,
            "artifact_corrupt": 0,
        }
        self._stop = threading.Event()
        exec_log = os.environ.get(EXEC_LOG_ENV)
        self._exec_log = JsonlLog(exec_log) if exec_log else None

    def stop(self) -> None:
        """Ask :meth:`run_forever` to exit after the current cell."""
        self._stop.set()

    # ------------------------------------------------------------------- loop

    def run_forever(self) -> dict[str, int]:
        """Poll for cells until stopped or idle too long; returns stats."""
        last_activity = time.monotonic()
        try:
            while not self._stop.is_set():
                try:
                    worked = self.step()
                except FabricError:
                    self.stats["network_errors"] += 1
                    worked = False
                if worked:
                    last_activity = time.monotonic()
                    continue
                if (
                    self.max_idle_seconds is not None
                    and time.monotonic() - last_activity >= self.max_idle_seconds
                ):
                    break
                self._stop.wait(self.poll_interval)
        finally:
            if self._exec_log is not None:
                self._exec_log.close()
        return dict(self.stats)

    def step(self) -> bool:
        """Claim and process at most one cell; ``False`` when idle."""
        # Claiming is idempotent by lease expiry: a claim whose response
        # was lost leases a cell nobody works on, which simply expires and
        # re-queues (at the cost of one retry-budget attempt) — so retrying
        # the POST is safe.
        reply = self.transport.post_json(
            "/v1/cells/claim", envelope(worker=self.worker_id), idempotent=True
        )
        cell = reply.get("cell")
        if cell is None:
            return False
        self.stats["claims"] += 1
        self._process(cell)
        return True

    # ------------------------------------------------------------------ cells

    def _process(self, cell: dict) -> None:
        key = cell["key"]
        outcome, wall_time = self._resolve(key, cell)
        self._deliver(key, outcome, wall_time, attempt=cell.get("attempt", 0))

    def _resolve(self, key: str, cell: dict):
        if self.cache is not None:
            metrics = self.cache.get_key(key)
            if metrics is not None:
                self.stats["local_cache_hits"] += 1
                return metrics, 0.0
        stored = self._fetch_artifact(key)
        if stored is not None:
            self.stats["artifact_hits"] += 1
            if self.cache is not None and not self.cache.has_key(key):
                self.cache.put_key(key, stored)
            return stored, 0.0
        return self._execute(key, cell)

    def _fetch_artifact(self, key: str):
        """Read ``key`` through the scheduler's artifact store.

        Any malformed payload — missing ``metrics``, undecodable schema, a
        CRC-32 that does not match the body — is a **miss**, never a crash:
        the worker falls through to executing the cell itself, which is
        always correct (just slower).
        """
        from repro.sim.api import RunMetrics

        try:
            payload = self.transport.get_json_or_none(f"/v1/artifacts/{key}")
        except FabricError:
            return None  # store unreachable — fall through to executing
        if payload is None:
            return None
        try:
            metrics_payload = payload["metrics"]
            crc = payload.get("crc32")
            if crc is not None and crc != payload_crc32(metrics_payload):
                raise ValueError("artifact checksum mismatch")
            return RunMetrics.from_dict(metrics_payload)
        except (KeyError, TypeError, ValueError):
            self.stats["artifact_corrupt"] += 1
            return None

    def _execute(self, key: str, cell: dict):
        from repro.sim.engine import SweepEngine

        self._ledger(key)
        request = RunRequest.from_dict(cell["request"])
        if self.trace_store is not None:
            # Count resolutions the trace store will serve without a fresh
            # recording — the replayed-trace rung of the resolution ladder
            # (local cache → artifact store → replayed trace → full run).
            from repro.replay.trace import trace_key

            if self.trace_store.has(trace_key(request)):
                self.stats["trace_replays"] += 1
        engine = SweepEngine(
            jobs=1,
            timeout=cell.get("timeout"),
            cache=self.cache,
            trace_store=self.trace_store,
        )
        heartbeat = self._start_heartbeat(key, cell.get("lease_seconds") or 15.0)
        started = time.monotonic()
        try:
            outcome = engine.run([request])[0]
        finally:
            heartbeat.set()
        self.stats["executed"] += 1
        return outcome, time.monotonic() - started

    def _start_heartbeat(self, key: str, lease_seconds: float) -> threading.Event:
        """Renew the lease from a side thread until the returned event is
        set.  Heartbeat failures are swallowed: if the scheduler is briefly
        down, the completion retry loop is the recovery path; if the lease
        truly expired, the completion comes back ``stale``, which is fine.
        """
        done = threading.Event()
        interval = max(0.5, lease_seconds / 3.0)

        def beat() -> None:
            while not done.wait(interval):
                try:
                    self.transport.post_json(
                        f"/v1/cells/{key}/heartbeat",
                        envelope(worker=self.worker_id),
                        idempotent=True,  # renewing a lease twice is a no-op
                    )
                except FabricError:
                    pass

        thread = threading.Thread(target=beat, daemon=True, name=f"hb-{key[:8]}")
        thread.start()
        return done

    def _deliver(
        self, key: str, outcome, wall_time: float, *, attempt: int = 0
    ) -> None:
        # The idempotency token is stable across *delivery* retries of this
        # one execution (worker, cell, attempt): a response lost in flight
        # re-sends the same token and the scheduler replays its recorded
        # decision instead of double-settling the cell.
        token = f"{self.worker_id}:{key}:{attempt}"
        payload = envelope(
            worker=self.worker_id,
            outcome=encode_outcome(outcome),
            wall_time=round(wall_time, 6),
            token=token,
        )
        deadline = time.monotonic() + COMPLETE_RETRY_SECONDS
        backoff = self.transport_policy.backoff()
        delivery_try = 1
        while True:
            try:
                self.transport.post_json(
                    f"/v1/cells/{key}/complete", payload, idempotent=True
                )
                return
            except FabricError:
                if time.monotonic() >= deadline or self._stop.is_set():
                    # Abandon: the lease will expire and the cell re-queue.
                    self.stats["delivery_failures"] += 1
                    return
                delivery_try += 1
                # stop() interrupts the wait promptly; plain sleep() would
                # hold shutdown hostage for up to a full backoff interval.
                self._stop.wait(backoff.delay(f"deliver:{key}", delivery_try))

    def _ledger(self, key: str) -> None:
        if self._exec_log is not None:
            self._exec_log.append({"key": key, "worker": self.worker_id})
