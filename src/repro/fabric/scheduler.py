"""The fabric scheduler: a stdlib HTTP service around :class:`FabricQueue`.

Versioned JSON API (all bodies are :func:`~repro.fabric.wire.envelope`
stamped; a newer ``schema`` than the server's is rejected with 400):

==========================================  =================================
``POST /v1/sweeps``                         submit a batch: ``requests`` (a
                                            list of serialized
                                            :class:`~repro.sim.api.RunRequest`)
                                            plus the submitter's
                                            ``execution`` policy → sweep id
                                            + per-cell keys
``GET /v1/sweeps/<id>``                     status counts; ``?outcomes=1``
                                            adds settled outcomes in
                                            submission order
``GET /v1/sweeps/<id>/events?since=N``      the sweep's event stream as
                                            JSONL, sequence-numbered;
                                            at-least-once across scheduler
                                            restarts (``since`` past the end
                                            is clamped)
``POST /v1/cells/claim``                    lease the next pending cell
``POST /v1/cells/<key>/heartbeat``          renew a lease mid-execution
``POST /v1/cells/<key>/complete``           report a terminal outcome
``GET /v1/artifacts/<key>``                 artifact-store read-through
``GET /v1/ping``                            liveness + schema + queue depth
``GET /v1/health``                          queue depth by state, lease
                                            count, uptime, compactions
==========================================  =================================

Hardening (wire schema v3): sweep submissions and completions carry
idempotency tokens — a duplicated submission resolves to the original
sweep, a duplicated completion replays the recorded decision without
re-settling or re-narrating the cell.  Artifact payloads carry a CRC-32
of their canonical metrics JSON.  ``max_pending`` bounds the pending
queue: a submission that would overflow it is refused with HTTP 429 and
a ``Retry-After`` header instead of being accepted and starved.

The scheduler owns the **shared artifact store** — a plain
:class:`~repro.sim.cache.ResultCache` on its disk, whose entries are CRC
checked before they are served.  Completed metrics are
written there as they arrive, a submitted cell whose key is already stored
settles instantly, and workers read missing keys through
``GET /v1/artifacts/<key>`` before simulating anything.

Leases expire server-side: a worker that stops heartbeating has its cell
re-queued (journalled as a crash-kind attempt) and the submitting session
sees a ``retrying`` event.  Retry budgets come from the submitter's
:class:`~repro.sim.engine.RetryPolicy`, enforced here so every submitting
client observes the same policy it would have run locally.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.fabric.queue import CellRecord, FabricQueue
from repro.fabric.wire import (
    WIRE_SCHEMA_VERSION,
    WireError,
    check_schema,
    encode_outcome,
    envelope,
    payload_crc32,
)
from repro.sim.api import RunFailure, RunMetrics, RunOutcome, RunRequest
from repro.sim.cache import ResultCache, cache_key
from repro.sim.engine import RetryPolicy
from repro.sim.events import (
    CACHE_HIT,
    EVENT_SCHEMA_VERSION,
    FAILED,
    FINISHED,
    QUEUED,
    RETRYING,
    STARTED,
    TIMED_OUT,
)

#: Default lease duration; a healthy worker heartbeats at a fraction of it.
DEFAULT_LEASE_SECONDS = 15.0

#: Auto-compact the journal after this many appended records.  High enough
#: that a busy scheduler compacts at most every few sweeps, low enough that
#: the journal never grows past a few MB of dead history.
DEFAULT_COMPACT_EVERY = 4096


class AdmissionFull(RuntimeError):
    """A submission refused because the pending queue is at ``max_pending``.

    Carries the seconds a polite client should wait before retrying; the
    HTTP layer turns this into 429 + ``Retry-After``.
    """

    def __init__(self, message: str, *, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class FabricScheduler:
    """The scheduler's state machine, independent of HTTP plumbing.

    All public methods are thread-safe (one coarse lock — correctness over
    concurrency; the work units are whole simulations, so the lock is never
    the bottleneck).
    """

    def __init__(
        self,
        state_dir: str | Path,
        *,
        cache_dir: str | Path | None = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_pending: int | None = None,
        compact_every: int | None = DEFAULT_COMPACT_EVERY,
        clock=time.monotonic,
    ) -> None:
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.state_dir = Path(state_dir)
        self.queue = FabricQueue(
            self.state_dir / "queue.jsonl", compact_every=compact_every
        )
        self.store = ResultCache(cache_dir or self.state_dir / "artifacts")
        self.lease_seconds = lease_seconds
        self.max_pending = max_pending
        self.clock = clock
        self.started_at = clock()
        self._lock = threading.Lock()
        #: sweep_id → ordered event dicts (in-memory; regenerated on restart,
        #: so delivery is at-least-once, never exactly-once).
        self._events: dict[str, list[dict]] = {}
        #: cell key → [(sweep_id, index), ...] — one cell can satisfy many
        #: batch slots, each of which needs its own event narration.
        self._watchers: dict[str, list[tuple[str, int]]] = {}
        recovered = self.queue.load()
        self._recover_watchers()
        self.recovered_records = recovered

    # ------------------------------------------------------------------ events

    def _event(
        self, sweep_id: str, kind: str, index: int, cell: CellRecord, **extra
    ) -> None:
        request = cell.request
        # Events are read back as RunEvent.from_dict, so they carry the
        # *event* schema stamp, not the wire envelope's.
        event = {
            "schema": EVENT_SCHEMA_VERSION,
            "kind": kind,
            "index": index,
            "workload": request["workload"]["name"],
            "config": request["config"]["name"],
            "model": request["attack_model"],
        }
        event.update({k: v for k, v in extra.items() if v is not None})
        self._events.setdefault(sweep_id, []).append(event)

    def _broadcast(self, cell: CellRecord, kind: str, **extra) -> None:
        for sweep_id, index in self._watchers.get(cell.key, ()):
            self._event(sweep_id, kind, index, cell, **extra)

    def _terminal_extras(self, outcome: RunOutcome) -> dict:
        if isinstance(outcome, RunFailure):
            return {
                "error": f"{outcome.error_type}: {outcome.message}",
                "failure_kind": outcome.kind,
                "attempt": outcome.attempts,
            }
        return {"cycles": outcome.cycles, "instructions": outcome.instructions}

    def _recover_watchers(self) -> None:
        """Rebuild watcher maps and a minimal event history after a restart.

        ``queued`` plus a terminal event per settled cell is enough for a
        reconnecting client to converge; in-flight detail (``started``
        timestamps, past retries) died with the previous process and is
        not fabricated.
        """
        for sweep_id, sweep in self.queue.sweeps.items():
            for index, key in enumerate(sweep.cells):
                self._watchers.setdefault(key, []).append((sweep_id, index))
                cell = self.queue.cells[key]
                self._event(sweep_id, QUEUED, index, cell)
                if cell.done:
                    kind = (
                        FAILED if isinstance(cell.outcome, RunFailure) else FINISHED
                    )
                    self._event(
                        sweep_id, kind, index, cell,
                        **self._terminal_extras(cell.outcome),
                    )

    # -------------------------------------------------------------- submission

    def submit(self, payload: dict) -> dict:
        check_schema(payload, what="sweep submission")
        requests = [RunRequest.from_dict(r) for r in payload["requests"]]
        execution = payload.get("execution") or {}
        retry_payload = execution.get("retries")
        retry = (
            RetryPolicy.from_dict(retry_payload)
            if retry_payload
            else RetryPolicy(max_retries=0)
        )
        timeout = execution.get("timeout")
        token = payload.get("token")
        with self._lock:
            if token is not None:
                existing = self.queue.sweep_by_token(str(token))
                if existing is not None:
                    # Duplicated submission (client retried through a lost
                    # response): resolve to the original sweep unchanged.
                    return envelope(
                        sweep_id=existing.sweep_id,
                        keys=list(existing.cells),
                        total=len(existing.cells),
                        deduplicated=True,
                    )
            sweep_id = f"sweep-{len(self.queue.sweeps):04d}-{int(self.clock() * 1e3):x}"
            cells = [(cache_key(r), r.to_dict()) for r in requests]
            if self.max_pending is not None:
                self._expire()
                incoming = {
                    key for key, _ in cells if key not in self.queue.cells
                }
                depth = self.queue.pending_count() + len(incoming)
                if depth > self.max_pending:
                    raise AdmissionFull(
                        f"pending queue full: {depth} > max_pending="
                        f"{self.max_pending}",
                        retry_after=max(1.0, self.lease_seconds / 2),
                    )
            self.queue.submit(
                sweep_id, cells, retry=retry, timeout=timeout,
                token=None if token is None else str(token),
            )
            for index, (key, _) in enumerate(cells):
                self._watchers.setdefault(key, []).append((sweep_id, index))
                self._event(sweep_id, QUEUED, index, self.queue.cells[key])
            # Settle what needs no worker: cells another sweep already
            # finished, and cells the artifact store can answer.
            settled_now: set[str] = set()
            for index, (key, _) in enumerate(cells):
                cell = self.queue.cells[key]
                if cell.done:
                    if key not in settled_now:
                        kind = (
                            CACHE_HIT
                            if isinstance(cell.outcome, RunMetrics)
                            else FAILED
                        )
                        self._event(
                            sweep_id, kind, index, cell,
                            **self._terminal_extras(cell.outcome),
                        )
                    continue
                if key in settled_now:
                    continue  # duplicate request in this batch; already handled
                stored = self.store.get_key(key)
                if stored is not None:
                    self.queue.complete(key, stored)
                    settled_now.add(key)
                    self._broadcast(cell, CACHE_HIT)
            return envelope(
                sweep_id=sweep_id,
                keys=[key for key, _ in cells],
                total=len(cells),
            )

    # ------------------------------------------------------------------ status

    def status(self, sweep_id: str, *, include_outcomes: bool = False) -> dict:
        with self._lock:
            self._expire()
            if sweep_id not in self.queue.sweeps:
                raise KeyError(sweep_id)
            counts = self.queue.sweep_counts(sweep_id)
            total = sum(counts.values())
            payload = envelope(
                sweep_id=sweep_id,
                total=total,
                pending=counts["pending"],
                leased=counts["leased"],
                done=counts["done"],
                complete=counts["done"] == total,
            )
            if include_outcomes:
                payload["outcomes"] = [
                    encode_outcome(outcome) if outcome is not None else None
                    for outcome in self.queue.sweep_outcomes(sweep_id)
                ]
            return payload

    def events_since(self, sweep_id: str, since: int) -> list[dict]:
        with self._lock:
            if sweep_id not in self.queue.sweeps:
                raise KeyError(sweep_id)
            events = self._events.get(sweep_id, [])
            # A client that outlived a scheduler restart may ask from a
            # sequence number past our regenerated history; clamp and
            # re-deliver (at-least-once — the client dedups terminals).
            since = max(0, min(since, len(events)))
            return [
                dict(event, seq=seq)
                for seq, event in enumerate(events[since:], start=since)
            ]

    def ping(self) -> dict:
        with self._lock:
            return envelope(
                ok=True,
                sweeps=len(self.queue.sweeps),
                cells=len(self.queue.cells),
                pending=self.queue.pending_count(),
            )

    def health(self) -> dict:
        """Operational snapshot: queue depth by state, lease count, uptime,
        admission bound, and how often the journal has compacted."""
        with self._lock:
            self._expire()
            done = sum(1 for c in self.queue.cells.values() if c.done)
            pending = self.queue.pending_count()
            leased = len(self.queue.cells) - pending - done
            return envelope(
                ok=True,
                uptime=self.clock() - self.started_at,
                sweeps=len(self.queue.sweeps),
                cells=len(self.queue.cells),
                pending=pending,
                leased=leased,
                done=done,
                max_pending=self.max_pending,
                lease_seconds=self.lease_seconds,
                compactions=self.queue.compactions,
            )

    # ----------------------------------------------------------------- leasing

    def claim(self, payload: dict) -> dict:
        check_schema(payload, what="claim")
        worker = str(payload.get("worker", "anonymous"))
        with self._lock:
            self._expire()
            cell = self.queue.claim(
                worker, lease_seconds=self.lease_seconds, now=self.clock()
            )
            if cell is None:
                return envelope(cell=None)
            self._broadcast(cell, STARTED, attempt=cell.attempts)
            return envelope(
                cell={
                    "key": cell.key,
                    "request": cell.request,
                    "timeout": cell.timeout,
                    "attempt": cell.attempts,
                    "lease_seconds": self.lease_seconds,
                }
            )

    def heartbeat(self, key: str, payload: dict) -> dict:
        check_schema(payload, what="heartbeat")
        worker = str(payload.get("worker", "anonymous"))
        with self._lock:
            ok = self.queue.heartbeat(
                key, worker, lease_seconds=self.lease_seconds, now=self.clock()
            )
            return envelope(ok=ok)

    def _expire(self) -> None:
        for cell in self.queue.expire_leases(now=self.clock()):
            if cell.done:
                self._broadcast(
                    cell, FAILED, **self._terminal_extras(cell.outcome)
                )
            else:
                self._broadcast(
                    cell, RETRYING,
                    failure_kind=cell.last_failure.kind if cell.last_failure else None,
                    attempt=cell.attempts,
                )

    # -------------------------------------------------------------- completion

    def complete(self, key: str, payload: dict) -> dict:
        check_schema(payload, what="completion")
        from repro.fabric.wire import decode_outcome

        outcome = decode_outcome(payload["outcome"])
        wall_time = payload.get("wall_time")
        token = payload.get("token")
        with self._lock:
            cell = self.queue.cells.get(key)
            if cell is None:
                raise KeyError(key)
            if token is not None and str(token) in cell.tokens:
                # Duplicated delivery of a completion we already applied:
                # replay the recorded decision without re-settling the cell
                # or narrating the terminal event a second time.
                return envelope(decision=cell.tokens[str(token)], replayed=True)
            decision = self.queue.complete(
                key, outcome, token=None if token is None else str(token)
            )
            if decision == "done":
                if isinstance(cell.outcome, RunMetrics):
                    if not self.store.has_key(key):
                        self.store.put_key(key, cell.outcome)
                    self._broadcast(
                        cell, FINISHED,
                        wall_time=wall_time,
                        **self._terminal_extras(cell.outcome),
                    )
                else:
                    self._broadcast(
                        cell, FAILED,
                        wall_time=wall_time,
                        **self._terminal_extras(cell.outcome),
                    )
            elif decision == "retry":
                assert isinstance(outcome, RunFailure)
                if outcome.kind == "timeout":
                    self._broadcast(
                        cell, TIMED_OUT, wall_time=wall_time, attempt=cell.attempts
                    )
                self._broadcast(
                    cell, RETRYING, failure_kind=outcome.kind, attempt=cell.attempts
                )
            return envelope(decision=decision)

    def artifact(self, key: str) -> dict | None:
        """The metrics for ``key`` with their ``crc32``, or ``None``.  The
        store checks its entry's CRC first; a corrupt entry falls back to
        the queue's ``done`` outcome and is never re-stamped and served."""
        with self._lock:
            metrics = self.store.get_key(key)
            if metrics is None and key in self.queue.cells:
                cell = self.queue.cells[key]
                if cell.done and isinstance(cell.outcome, RunMetrics):
                    metrics = cell.outcome
            if metrics is None:
                return None
            payload = metrics.to_dict()
            return envelope(metrics=payload, crc32=payload_crc32(payload))

    def close(self) -> None:
        self.queue.close()


# --------------------------------------------------------------------- HTTP

_ROUTES = (
    ("POST", re.compile(r"^/v1/sweeps$"), "submit"),
    ("GET", re.compile(r"^/v1/sweeps/(?P<sweep_id>[\w.-]+)$"), "status"),
    ("GET", re.compile(r"^/v1/sweeps/(?P<sweep_id>[\w.-]+)/events$"), "events"),
    ("POST", re.compile(r"^/v1/cells/claim$"), "claim"),
    ("POST", re.compile(r"^/v1/cells/(?P<key>[0-9a-f]+)/heartbeat$"), "heartbeat"),
    ("POST", re.compile(r"^/v1/cells/(?P<key>[0-9a-f]+)/complete$"), "complete"),
    ("GET", re.compile(r"^/v1/artifacts/(?P<key>[0-9a-f]+)$"), "artifact"),
    ("GET", re.compile(r"^/v1/ping$"), "ping"),
    ("GET", re.compile(r"^/v1/health$"), "health"),
)


class _Handler(BaseHTTPRequestHandler):
    scheduler: FabricScheduler  # set by make_server
    protocol_version = "HTTP/1.1"

    def log_message(self, *_args) -> None:  # quiet by default
        pass

    def _json(
        self, status: int, payload: dict, headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _jsonl(self, records: list[dict]) -> None:
        body = "".join(json.dumps(r) + "\n" for r in records).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length == 0:
            return {}
        return json.loads(self.rfile.read(length))

    def _dispatch(self, method: str) -> None:
        from urllib.parse import parse_qs, urlparse

        parsed = urlparse(self.path)
        for verb, pattern, name in _ROUTES:
            if verb != method:
                continue
            match = pattern.match(parsed.path)
            if match is None:
                continue
            query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
            try:
                self._handle(name, match.groupdict(), query)
            except AdmissionFull as exc:
                self._json(
                    429,
                    {"error": str(exc), "retry_after": exc.retry_after},
                    headers={"Retry-After": str(int(exc.retry_after + 0.5))},
                )
            except KeyError as exc:
                self._json(404, {"error": f"not found: {exc}"})
            except WireError as exc:
                self._json(400, {"error": str(exc)})
            except (ValueError, TypeError) as exc:
                self._json(400, {"error": f"bad request: {exc}"})
            return
        self._json(404, {"error": f"no route for {method} {parsed.path}"})

    def _handle(self, name: str, params: dict, query: dict) -> None:
        scheduler = self.scheduler
        if name == "submit":
            self._json(200, scheduler.submit(self._body()))
        elif name == "status":
            self._json(
                200,
                scheduler.status(
                    params["sweep_id"],
                    include_outcomes=query.get("outcomes") == "1",
                ),
            )
        elif name == "events":
            since = int(query.get("since", 0))
            self._jsonl(scheduler.events_since(params["sweep_id"], since))
        elif name == "claim":
            self._json(200, scheduler.claim(self._body()))
        elif name == "heartbeat":
            self._json(200, scheduler.heartbeat(params["key"], self._body()))
        elif name == "complete":
            self._json(200, scheduler.complete(params["key"], self._body()))
        elif name == "artifact":
            payload = scheduler.artifact(params["key"])
            if payload is None:
                self._json(404, {"error": f"no artifact {params['key']}"})
            else:
                self._json(200, payload)
        elif name == "ping":
            self._json(200, scheduler.ping())
        elif name == "health":
            self._json(200, scheduler.health())

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("POST")


def make_server(
    scheduler: FabricScheduler, host: str = "127.0.0.1", port: int = 8700
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server onto ``scheduler`` (not yet serving)."""
    handler = type("BoundHandler", (_Handler,), {"scheduler": scheduler})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def serve(
    state_dir: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 8700,
    cache_dir: str | Path | None = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    max_pending: int | None = None,
    compact_every: int | None = DEFAULT_COMPACT_EVERY,
    ready_line: bool = True,
) -> None:
    """Run a scheduler until interrupted (the ``repro fabric serve`` entry).

    Prints ``fabric-scheduler listening on http://host:port`` once bound so
    wrappers (tests, shell scripts) can wait for readiness by reading one
    line of stdout.
    """
    scheduler = FabricScheduler(
        state_dir,
        cache_dir=cache_dir,
        lease_seconds=lease_seconds,
        max_pending=max_pending,
        compact_every=compact_every,
    )
    server = make_server(scheduler, host=host, port=port)
    if ready_line:
        bound_host, bound_port = server.server_address[:2]
        print(
            f"fabric-scheduler listening on http://{bound_host}:{bound_port} "
            f"(state={scheduler.state_dir}, recovered="
            f"{scheduler.recovered_records} records)",
            flush=True,
        )
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        scheduler.close()
