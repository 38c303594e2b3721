"""Deterministic network fault injection for the fabric.

:class:`ChaosProxy` is a stdlib-only TCP proxy that sits between a fabric
client/worker and the scheduler and applies a seeded, serializable
:class:`ChaosPlan` to every HTTP exchange passing through it::

    plan = ChaosPlan(seed=909, specs={"*": ChaosSpec(drop_request=0.1,
                                                     duplicate=0.1)})
    with ChaosProxy("http://127.0.0.1:8700", plan,
                    ledger=tmp / "faults.jsonl") as proxy:
        session = Session(execution=ExecutionPolicy(fabric=proxy.url))
        ...

Fault classes, chosen per request by a deterministic hash draw over
``(seed, endpoint class, request ordinal)`` — re-running the same traffic
shape against the same plan injects the same faults:

``drop-request``
    The request never reaches the scheduler; the client connection is
    closed cold.  Models a lost packet / dead link on the way in.
``drop-response``
    The request *is* delivered (the scheduler processes it!) but the
    response is thrown away.  The nastiest class for non-idempotent POSTs
    — exactly what idempotency tokens exist for.
``delay``
    The exchange is held for ``delay_seconds`` before forwarding.
``duplicate``
    The request is delivered to the scheduler **twice** (two upstream
    connections, sequentially); the client sees the second response.
    A duplicated ``complete`` must not double-settle a cell.
``truncate``
    The response is cut mid-body (or mid-header) and the connection
    closed — the client's HTTP layer sees ``IncompleteRead``/
    ``BadStatusLine``.  Models a scheduler restart mid-response.
``corrupt``
    Bytes in the response body are flipped; status line and headers stay
    intact, so the client reads a well-framed 200 full of garbage.

Every injected fault is appended to a JSONL **ledger** (`seq`, fault
kind, method, path, endpoint class), so tests can assert exactly which
faults a sweep survived rather than trusting that chaos happened.

The proxy understands just enough HTTP/1.x to frame one request and one
response per connection (both fabric peers send ``Content-Length`` and
use one connection per request), which keeps it ~wire-exact: bytes are
forwarded verbatim, faults act on whole captured exchanges.
"""

from __future__ import annotations

import hashlib
import re
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlsplit

from repro.common.codec import Codec
from repro.common.durable import JsonlLog

#: The injectable fault classes, in cumulative-draw order (serialized
#: plans rely on the names, not the order).
FAULT_DROP_REQUEST = "drop-request"
FAULT_DROP_RESPONSE = "drop-response"
FAULT_DELAY = "delay"
FAULT_DUPLICATE = "duplicate"
FAULT_TRUNCATE = "truncate"
FAULT_CORRUPT = "corrupt"
FAULT_KINDS = (
    FAULT_DROP_REQUEST,
    FAULT_DROP_RESPONSE,
    FAULT_DELAY,
    FAULT_DUPLICATE,
    FAULT_TRUNCATE,
    FAULT_CORRUPT,
)

#: Fault-kind → ChaosSpec rate-field name.
_RATE_FIELDS = {
    FAULT_DROP_REQUEST: "drop_request",
    FAULT_DROP_RESPONSE: "drop_response",
    FAULT_DELAY: "delay",
    FAULT_DUPLICATE: "duplicate",
    FAULT_TRUNCATE: "truncate",
    FAULT_CORRUPT: "corrupt",
}

_HEX_SEGMENT = re.compile(r"^[0-9a-f]{16,}$")


def endpoint_class(method: str, path: str) -> str:
    """Collapse a concrete request path to its endpoint class, so plans
    target *kinds* of traffic: ``POST /v1/cells/<key>/complete``,
    ``GET /v1/sweeps/<sweep>/events`` — keys, sweep ids, and query strings
    are wildcarded."""
    path = path.split("?", 1)[0]
    segments = []
    for segment in path.strip("/").split("/"):
        if _HEX_SEGMENT.match(segment):
            segments.append("<key>")
        elif segment.startswith("sweep-"):
            segments.append("<sweep>")
        else:
            segments.append(segment)
    return f"{method} /" + "/".join(segments)


@dataclass(frozen=True)
class ChaosSpec(Codec):
    """Fault rates for one endpoint class (or the ``"*"`` catch-all).

    Each rate is the probability mass of that fault per request, drawn
    deterministically; the rates of one spec must sum to <= 1 (the rest is
    the clean-passthrough mass).  ``limit`` caps how many faults this spec
    injects in total — after that the endpoint runs clean, which bounds
    both test wall-clock and the tail risk of a sweep that never finishes.
    """

    drop_request: float = 0.0
    drop_response: float = 0.0
    delay: float = 0.0
    duplicate: float = 0.0
    truncate: float = 0.0
    corrupt: float = 0.0
    delay_seconds: float = 0.02
    limit: int | None = None

    def __post_init__(self) -> None:
        total = 0.0
        for kind, field_name in _RATE_FIELDS.items():
            rate = getattr(self, field_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {rate}")
            total += rate
        if total > 1.0 + 1e-9:
            raise ValueError(f"fault rates sum to {total:g} > 1")
        if self.delay_seconds < 0:
            raise ValueError(f"delay_seconds must be >= 0, got {self.delay_seconds}")
        if self.limit is not None and self.limit < 0:
            raise ValueError(f"limit must be >= 0, got {self.limit}")

    def rates(self) -> list[tuple[str, float]]:
        """``(fault kind, rate)`` pairs in draw order."""
        return [(kind, getattr(self, _RATE_FIELDS[kind])) for kind in FAULT_KINDS]



class ChaosPlan:
    """A seeded, serializable fault schedule.

    ``specs`` maps endpoint classes (see :func:`endpoint_class`) — or the
    catch-all ``"*"`` — to :class:`ChaosSpec`.  The decision for the n-th
    request of an endpoint class is a pure function of
    ``(seed, endpoint, n)``: a SHA-256 draw walked through the spec's
    cumulative rates.  Counters live in the plan instance, so one plan
    object drives one proxy; serializing a plan captures its *schedule*,
    not its progress.
    """

    def __init__(self, seed: int, specs: dict[str, ChaosSpec]) -> None:
        self.seed = int(seed)
        self.specs = dict(specs)
        self._lock = threading.Lock()
        self._ordinals: dict[str, int] = {}
        self._injected: dict[str, int] = {}

    def spec_for(self, endpoint: str) -> ChaosSpec | None:
        return self.specs.get(endpoint, self.specs.get("*"))

    def draw(self, endpoint: str, ordinal: int) -> float:
        """The deterministic uniform draw in ``[0, 1)`` for one request."""
        digest = hashlib.sha256(
            f"{self.seed}:{endpoint}:{ordinal}".encode()
        ).hexdigest()
        return int(digest[:12], 16) / float(16**12)

    def fault_for(self, endpoint: str, ordinal: int) -> str | None:
        """The fault (or None) the plan assigns to the ``ordinal``-th
        request of ``endpoint`` — pure, ignoring ``limit``."""
        spec = self.spec_for(endpoint)
        if spec is None:
            return None
        draw = self.draw(endpoint, ordinal)
        cumulative = 0.0
        for kind, rate in spec.rates():
            cumulative += rate
            if draw < cumulative:
                return kind
        return None

    def decide(self, method: str, path: str) -> tuple[str | None, ChaosSpec | None]:
        """Consume one request slot: returns ``(fault_kind_or_None, spec)``
        honouring the spec's ``limit``."""
        endpoint = endpoint_class(method, path)
        spec = self.spec_for(endpoint)
        if spec is None:
            return None, None
        with self._lock:
            ordinal = self._ordinals.get(endpoint, 0)
            self._ordinals[endpoint] = ordinal + 1
            fault = self.fault_for(endpoint, ordinal)
            if fault is not None:
                if spec.limit is not None and self._injected.get(endpoint, 0) >= spec.limit:
                    return None, spec
                self._injected[endpoint] = self._injected.get(endpoint, 0) + 1
        return fault, spec

    def to_dict(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "specs": {key: spec.to_dict() for key, spec in self.specs.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ChaosPlan":
        return cls(
            seed=payload["seed"],
            specs={
                key: ChaosSpec.from_dict(spec)
                for key, spec in payload["specs"].items()
            },
        )


class ChaosProxyError(RuntimeError):
    """The proxy could not frame or forward an exchange."""


def _recv_http_message(sock: socket.socket, already: bytes = b"") -> bytes:
    """Read exactly one HTTP message (head + Content-Length body) from
    ``sock``; returns the raw bytes.  Raises :class:`ChaosProxyError` on a
    connection cut before the message completes."""
    data = bytearray(already)
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            raise ChaosProxyError("connection closed before message head")
        data.extend(chunk)
    head, _, rest = bytes(data).partition(b"\r\n\r\n")
    match = re.search(rb"(?im)^content-length:\s*(\d+)\s*$", head)
    body_length = int(match.group(1)) if match else 0
    body = bytearray(rest)
    while len(body) < body_length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ChaosProxyError("connection closed mid-body")
        body.extend(chunk)
    return head + b"\r\n\r\n" + bytes(body[:body_length])


def _request_target(message: bytes) -> tuple[str, str]:
    """``(method, path)`` from a raw HTTP request message."""
    line = message.split(b"\r\n", 1)[0].decode("latin-1")
    parts = line.split(" ")
    if len(parts) < 2:
        raise ChaosProxyError(f"unparseable request line {line!r}")
    return parts[0], parts[1]


def _corrupt_body(message: bytes, seed: int) -> bytes:
    """Flip bytes in the body, leaving the head intact so the client reads
    a well-framed response full of garbage."""
    head, sep, body = message.partition(b"\r\n\r\n")
    if not body:
        return message  # nothing to corrupt; leave headers alone
    mutated = bytearray(body)
    step = max(1, len(mutated) // 8)
    for index in range(seed % step, len(mutated), step):
        mutated[index] ^= 0x5A
    return head + sep + bytes(mutated)


class ChaosProxy:
    """A fault-injecting TCP proxy in front of one upstream fabric URL.

    Start with :meth:`start` (or as a context manager); point clients and
    workers at :attr:`url`.  Each client connection carries one HTTP
    exchange (matching the fabric transport's connection-per-request
    model); each exchange consumes one draw from the plan.
    """

    def __init__(
        self,
        upstream: str,
        plan: ChaosPlan,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        ledger: str | Path | None = None,
        timeout: float = 30.0,
    ) -> None:
        parts = urlsplit(upstream)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"upstream must be an http:// URL, got {upstream!r}")
        self.upstream_host = parts.hostname
        self.upstream_port = parts.port or 80
        self.plan = plan
        self.host = host
        self.timeout = timeout
        self._ledger = JsonlLog(ledger) if ledger is not None else None
        self._ledger_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._port = port
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self.stats = {"exchanges": 0, "faults": 0, "proxy_errors": 0}

    # --------------------------------------------------------------- lifecycle

    @property
    def url(self) -> str:
        if self._listener is None:
            raise RuntimeError("proxy not started")
        return f"http://{self.host}:{self._listener.getsockname()[1]}"

    def start(self) -> "ChaosProxy":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._port))
        listener.listen(64)
        listener.settimeout(0.2)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="chaos-accept"
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._ledger is not None:
            self._ledger.close()

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    # ---------------------------------------------------------------- serving

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve, args=(conn,), daemon=True, name="chaos-conn"
            )
            thread.start()

    def _serve(self, conn: socket.socket) -> None:
        conn.settimeout(self.timeout)
        try:
            self._exchange(conn)
        except (ChaosProxyError, OSError):
            self.stats["proxy_errors"] += 1
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _exchange(self, conn: socket.socket) -> None:
        request = _recv_http_message(conn)
        method, path = _request_target(request)
        self.stats["exchanges"] += 1
        fault, spec = self.plan.decide(method, path)
        if fault is not None:
            with self._ledger_lock:
                self.stats["faults"] += 1
                if self._ledger is not None:
                    self._ledger.append(
                        {
                            "seq": self.stats["faults"] - 1,
                            "fault": fault,
                            "method": method,
                            "path": path,
                            "endpoint": endpoint_class(method, path),
                        }
                    )
        if fault == FAULT_DROP_REQUEST:
            return  # never forwarded; client sees a cut connection
        if fault == FAULT_DELAY:
            time.sleep(spec.delay_seconds)
        response = self._forward(request)
        if fault == FAULT_DUPLICATE:
            # Second delivery of the same request; the client sees the
            # second response (both were processed upstream).
            response = self._forward(request)
        if fault == FAULT_DROP_RESPONSE:
            return  # processed upstream, but the client never learns
        if fault == FAULT_TRUNCATE:
            response = response[: max(12, int(len(response) * 0.5))]
        elif fault == FAULT_CORRUPT:
            response = _corrupt_body(response, self.plan.seed)
        conn.sendall(response)

    def _forward(self, request: bytes) -> bytes:
        upstream = socket.create_connection(
            (self.upstream_host, self.upstream_port), timeout=self.timeout
        )
        try:
            upstream.sendall(request)
            return _recv_http_message(upstream)
        finally:
            upstream.close()
