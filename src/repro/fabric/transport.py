"""HTTP/JSON transport shared by the worker agent and the client.

Two layers:

* :class:`HttpTransport` — one connection per request (``http.client``,
  standard library only): the fabric's requests are small and infrequent
  relative to simulation time, and fresh connections make scheduler
  restarts invisible — there is no stale keep-alive socket to trip over,
  only a clean refused connection that the caller retries.
* :class:`RetryingTransport` — the hardened wrapper every fabric peer
  actually uses: capped exponential backoff with deterministic
  per-``(path, attempt)`` jitter (reusing the
  :class:`~repro.sim.engine.RetryPolicy` delay idiom), retries restricted
  to idempotent or not-yet-processed cases, ``429 Retry-After``
  admission-control compliance, and a circuit breaker that trips after N
  consecutive transport failures and half-opens on a timer.

What counts as *transient* here: connection-level errors (refused, reset,
DNS, timeout), truncated responses (``IncompleteRead``/``BadStatusLine``
surface as :class:`FabricError`), a 200 whose body is not decodable JSON
(a corrupted response — the bytes on the wire lied, retrying refetches
clean ones), and 429 (the request was *not* processed, so retrying is
always safe).  What does not: any other HTTP status, which is an answer
from a healthy peer.

Retrying a POST is only safe when the request is idempotent.  In this
protocol every POST is *made* idempotent — ``claim`` by lease expiry,
``heartbeat`` by construction, ``complete`` and sweep submission by
idempotency tokens — so callers pass ``idempotent=True`` explicitly and
own that claim.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

from repro.common.codec import Codec
from repro.common.durable import CorruptLogError, parse_lines


class FabricError(RuntimeError):
    """A fabric endpoint could not be reached or rejected the request."""


class CircuitOpenError(FabricError):
    """The circuit breaker is open: recent calls failed consecutively and
    the reset timer has not elapsed, so the call fails fast instead of
    burning a timeout against a peer that is almost certainly still down."""


@dataclass(frozen=True)
class TransportPolicy(Codec):
    """Retry/backoff/circuit-breaker knobs for :class:`RetryingTransport`.

    ``retries``
        Extra attempts for transient failures of retry-safe requests
        (``0`` disables retrying — the raw-transport negative control).
    ``backoff_base`` / ``backoff_factor`` / ``backoff_max`` / ``jitter``
        The delay before retry *n* is ``backoff_base * backoff_factor**(n-1)``
        seconds, capped at ``backoff_max``, with a deterministic jitter of
        up to ±``jitter`` of the delay derived from ``(path, attempt)`` —
        the same schedule every run, yet different endpoints never
        thundering-herd on the same instant.
    ``breaker_threshold``
        Consecutive transport failures that trip the circuit breaker open
        (``0`` disables the breaker).
    ``breaker_reset``
        Seconds the breaker stays open before half-opening to let one
        probe request through.
    """

    retries: int = 4
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.1
    breaker_threshold: int = 5
    breaker_reset: float = 5.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff_base/backoff_max must be >= 0")
        if self.breaker_threshold < 0:
            raise ValueError(
                f"breaker_threshold must be >= 0, got {self.breaker_threshold}"
            )
        if self.breaker_reset <= 0:
            raise ValueError(
                f"breaker_reset must be positive, got {self.breaker_reset}"
            )

    def backoff(self):
        """The delay engine: a :class:`~repro.sim.engine.RetryPolicy`
        whose ``delay(key, attempt)`` is reused with the request *path* as
        the key, so the jitter is deterministic per ``(path, attempt)``.
        (Imported lazily: ``sim.policies`` carries a :class:`TransportPolicy`
        field, and ``sim.engine`` sits between them on the import graph.)"""
        from repro.sim.engine import RetryPolicy

        return RetryPolicy(
            max_retries=self.retries,
            backoff_base=self.backoff_base,
            backoff_factor=self.backoff_factor,
            backoff_max=self.backoff_max,
            jitter=self.jitter,
        )



class CircuitBreaker:
    """Closed → open after ``threshold`` consecutive failures → half-open
    after ``reset_seconds`` → closed on a successful probe (or straight
    back to open on a failed one).

    ``threshold=0`` disables the breaker (always closed).  Not thread-safe
    on its own; each transport owns one and fabric peers are effectively
    single-threaded per transport (the worker's heartbeat thread gets its
    own transport).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self, threshold: int, reset_seconds: float, *, clock=time.monotonic
    ) -> None:
        self.threshold = threshold
        self.reset_seconds = reset_seconds
        self.clock = clock
        self.state = self.CLOSED
        self.failures = 0
        self._opened_at = 0.0

    def allow(self) -> bool:
        """May a request be attempted right now?  An open breaker whose
        reset timer elapsed transitions to half-open and allows exactly
        one probe (further calls stay blocked until the probe settles)."""
        if self.threshold == 0 or self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if self.clock() - self._opened_at >= self.reset_seconds:
                self.state = self.HALF_OPEN
                return True
            return False
        return False  # half-open: the in-flight probe decides

    def record_success(self) -> None:
        self.state = self.CLOSED
        self.failures = 0

    def record_failure(self) -> None:
        if self.threshold == 0:
            return
        self.failures += 1
        if self.state == self.HALF_OPEN or self.failures >= self.threshold:
            self.state = self.OPEN
            self._opened_at = self.clock()


class _JsonCalls:
    """The JSON convenience layer, shared by the raw and retrying
    transports — everything is sugar over :meth:`exchange`."""

    base_url: str

    def exchange(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        *,
        idempotent: bool = False,
    ) -> tuple[int, str, dict]:
        raise NotImplementedError

    def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, str]:
        """One round trip; returns ``(status, body_text)``.

        Connection-level problems (refused, reset, DNS, timeout, truncated
        response) raise :class:`FabricError`; HTTP error *statuses* are
        returned to the caller, who knows which ones are meaningful (a 404
        artifact miss is normal, a 404 sweep is not).
        """
        status, text, _headers = self.exchange(method, path, payload)
        return status, text

    def _raise_for(self, method: str, path: str, status: int, text: str) -> None:
        raise FabricError(f"{method} {self.base_url}{path} -> HTTP {status}: {text}")

    def _decode(self, method: str, path: str, text: str) -> dict:
        try:
            return json.loads(text)
        except ValueError as exc:
            # A 200 with an undecodable body is a corrupted response, not a
            # server answer — surface it as the transient error it is.
            raise FabricError(
                f"{method} {self.base_url}{path} returned undecodable "
                f"JSON: {exc}"
            ) from exc

    def post_json(
        self, path: str, payload: dict, *, idempotent: bool = False
    ) -> dict:
        status, text, _ = self.exchange(
            "POST", path, payload, idempotent=idempotent
        )
        if status != 200:
            self._raise_for("POST", path, status, text)
        return self._decode("POST", path, text)

    def get_json(self, path: str) -> dict:
        status, text, _ = self.exchange("GET", path, idempotent=True)
        if status != 200:
            self._raise_for("GET", path, status, text)
        return self._decode("GET", path, text)

    def get_json_or_none(self, path: str) -> dict | None:
        """Like :meth:`get_json` but a 404 is an answer, not an error."""
        status, text, _ = self.exchange("GET", path, idempotent=True)
        if status == 404:
            return None
        if status != 200:
            self._raise_for("GET", path, status, text)
        return self._decode("GET", path, text)

    def get_lines(self, path: str) -> list[dict]:
        """Fetch a JSONL endpoint as a list of parsed records.

        The durable-log rule (:func:`~repro.common.durable.parse_lines`): a
        torn *trailing* line — the scheduler restarted or the connection
        died mid-stream — is dropped, and the client re-requests from its
        cursor.  A torn line *mid-stream* is a corrupted response and raises
        :class:`FabricError` (transient, so the retrying transport refetches).
        """
        status, text, _ = self.exchange("GET", path, idempotent=True)
        if status != 200:
            self._raise_for("GET", path, status, text)
        try:
            return parse_lines(text, f"GET {self.base_url}{path}")
        except CorruptLogError as exc:
            raise FabricError(
                f"GET {self.base_url}{path} line {exc.line} is corrupt mid-stream"
            ) from exc


class HttpTransport(_JsonCalls):
    """JSON requests against one fabric base URL (e.g. ``http://host:8700``)."""

    def __init__(self, base_url: str, *, timeout: float = 10.0) -> None:
        parts = urlsplit(base_url)
        if parts.scheme != "http":
            raise ValueError(
                f"fabric URLs must be http:// (got {base_url!r}); the fabric "
                "is a trusted-network service and speaks plain HTTP"
            )
        if not parts.hostname:
            raise ValueError(f"fabric URL {base_url!r} has no host")
        self.base_url = base_url.rstrip("/")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.prefix = parts.path.rstrip("/")
        self.timeout = timeout

    def exchange(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        *,
        idempotent: bool = False,
    ) -> tuple[int, str, dict]:
        """One round trip; returns ``(status, body_text, headers)`` with
        header names lowercased.  ``idempotent`` is a no-op here — the raw
        transport never retries; the flag exists so the retrying wrapper
        shares this signature."""
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request(method, self.prefix + path, body=body, headers=headers)
            response = conn.getresponse()
            reply_headers = {
                name.lower(): value for name, value in response.getheaders()
            }
            return response.status, response.read().decode("utf-8"), reply_headers
        except (OSError, socket.timeout, http.client.HTTPException) as exc:
            raise FabricError(
                f"{method} {self.base_url}{path} failed: {exc}"
            ) from exc
        finally:
            conn.close()


class RetryingTransport(_JsonCalls):
    """The hardened transport: retries, deterministic backoff, breaker.

    ``target`` is a base URL (an :class:`HttpTransport` is built over it)
    or any object with the ``exchange`` signature — tests inject scripted
    fakes that way.  ``sleep`` is the backoff wait; the worker passes its
    stop event's ``wait`` so ``stop()`` interrupts a backoff immediately.
    """

    def __init__(
        self,
        target: str | _JsonCalls,
        *,
        timeout: float = 10.0,
        policy: TransportPolicy | None = None,
        sleep=time.sleep,
        clock=time.monotonic,
    ) -> None:
        self.inner = (
            HttpTransport(target, timeout=timeout)
            if isinstance(target, str)
            else target
        )
        self.base_url = self.inner.base_url
        self.policy = policy or TransportPolicy()
        self.breaker = CircuitBreaker(
            self.policy.breaker_threshold, self.policy.breaker_reset, clock=clock
        )
        self._backoff = self.policy.backoff()
        self._sleep = sleep
        self.stats = {"retries": 0, "breaker_fastfails": 0}

    def delay(self, path: str, attempt: int) -> float:
        """Backoff before the ``attempt``-th try of ``path`` (attempt >= 2)
        — deterministic in ``(path, attempt)``, capped at ``backoff_max``."""
        return self._backoff.delay(path, attempt)

    def exchange(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        *,
        idempotent: bool = False,
    ) -> tuple[int, str, dict]:
        attempt = 0
        while True:
            attempt += 1
            if not self.breaker.allow():
                self.stats["breaker_fastfails"] += 1
                raise CircuitOpenError(
                    f"{method} {self.base_url}{path}: circuit open after "
                    f"{self.breaker.failures} consecutive failures"
                )
            try:
                status, text, headers = self.inner.exchange(
                    method, path, payload, idempotent=idempotent
                )
            except FabricError as exc:
                self.breaker.record_failure()
                retryable = idempotent or method == "GET"
                if not retryable or attempt > self.policy.retries:
                    raise
                self.stats["retries"] += 1
                self._sleep(self.delay(path, attempt + 1))
                continue
            if status == 429:
                # Admission control: the request was not processed, so a
                # retry is safe regardless of idempotency.  The server is
                # alive and answering — that is a breaker success.
                self.breaker.record_success()
                if attempt > self.policy.retries:
                    return status, text, headers
                self.stats["retries"] += 1
                retry_after = _retry_after_seconds(headers)
                self._sleep(max(retry_after, self.delay(path, attempt + 1)))
                continue
            if (
                status == 200
                and "application/json" in headers.get("content-type", "")
                and not _decodes(text)
            ):
                # A well-framed 200 whose JSON body is garbage: the bytes
                # were corrupted in flight (headers intact, body flipped).
                # Retry-safety is the same question as for a connection
                # error — the request *was* processed, so only idempotent
                # requests may be re-sent.
                self.breaker.record_failure()
                retryable = idempotent or method == "GET"
                if not retryable or attempt > self.policy.retries:
                    return status, text, headers  # caller's _decode raises
                self.stats["retries"] += 1
                self._sleep(self.delay(path, attempt + 1))
                continue
            self.breaker.record_success()
            return status, text, headers


def _decodes(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def _retry_after_seconds(headers: dict) -> float:
    try:
        return max(0.0, float(headers.get("retry-after", 0.0)))
    except (TypeError, ValueError):
        return 0.0


def make_transport(
    url: str,
    *,
    timeout: float = 10.0,
    policy: TransportPolicy | None = None,
    sleep=time.sleep,
) -> _JsonCalls:
    """The transport a fabric peer should use: retrying by default; a
    ``TransportPolicy(retries=0, breaker_threshold=0)`` degenerates to the
    raw single-shot behaviour (the chaos gate's negative control)."""
    return RetryingTransport(url, timeout=timeout, policy=policy, sleep=sleep)
