"""Chaos-harness tests, per the PR contract.

Unit layer (fast, in-process): deterministic plan draws, endpoint-class
collapsing, serialization, and the proxy's fault mechanics against a tiny
loopback upstream.

Acceptance layer (``slow``): a 30-cell two-worker sweep routed through a
seeded :class:`ChaosPlan` — drops, delays, duplicates, truncations, and
corruptions on every endpoint class — finishes **bit-identical** to a
local sweep, with zero duplicate executions in the
``REPRO_FABRIC_EXEC_LOG`` ledger and zero double-settled cells in the
scheduler journal.  The un-hardened-transport negative control lives in
``scripts/check_chaos_gate.py`` (CI runs it next to this suite); a
miniature version — raw transport dies on the very first injected fault —
is tested here too.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from repro.common.config import AttackModel
from repro.common.durable import JsonlLog
from repro.fabric.chaos import (
    FAULT_DROP_REQUEST,
    FAULT_KINDS,
    ChaosPlan,
    ChaosSpec,
    ChaosProxy,
    endpoint_class,
)
from repro.fabric.transport import (
    FabricError,
    HttpTransport,
    RetryingTransport,
    TransportPolicy,
)
from repro.sim import CachePolicy, Session
from repro.sim.api import RunMetrics, RunRequest
from repro.sim.cache import cache_key
from repro.sim.configs import config_by_name
from repro.sim.engine import RetryPolicy
from repro.workloads import make_indirect_stream

from tests.fabric.test_e2e import (
    fabric_session,
    free_port,
    reap,
    start_scheduler,
    start_worker,
)


class TestEndpointClass:
    def test_keys_and_sweeps_wildcarded(self):
        key = "a" * 40
        assert (
            endpoint_class("POST", f"/v1/cells/{key}/complete")
            == "POST /v1/cells/<key>/complete"
        )
        assert (
            endpoint_class("GET", "/v1/sweeps/sweep-0003-1a2b/events?since=4")
            == "GET /v1/sweeps/<sweep>/events"
        )
        assert endpoint_class("GET", "/v1/ping") == "GET /v1/ping"

    def test_short_hex_words_not_wildcarded(self):
        # "claim" and "v1" must survive; only long hex digests collapse.
        assert endpoint_class("POST", "/v1/cells/claim") == "POST /v1/cells/claim"


class TestChaosPlan:
    def spec(self, **kwargs):
        kwargs.setdefault("drop_request", 0.2)
        kwargs.setdefault("duplicate", 0.2)
        return ChaosSpec(**kwargs)

    def test_draws_deterministic_and_uniformish(self):
        plan = ChaosPlan(7, {"*": self.spec()})
        draws = [plan.draw("GET /v1/ping", n) for n in range(200)]
        assert draws == [plan.draw("GET /v1/ping", n) for n in range(200)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert len(set(draws)) == 200  # no hash collisions in practice

    def test_fault_schedule_pure_and_seed_sensitive(self):
        specs = {"*": self.spec()}
        a = [ChaosPlan(1, specs).fault_for("GET /v1/ping", n) for n in range(100)]
        b = [ChaosPlan(1, specs).fault_for("GET /v1/ping", n) for n in range(100)]
        c = [ChaosPlan(2, specs).fault_for("GET /v1/ping", n) for n in range(100)]
        assert a == b
        assert a != c
        assert set(a) <= {None, FAULT_DROP_REQUEST, "duplicate"}

    def test_decide_consumes_ordinals_and_honours_limit(self):
        plan = ChaosPlan(3, {"*": self.spec(limit=2)})
        faults = [plan.decide("GET", "/v1/ping")[0] for _ in range(100)]
        injected = [f for f in faults if f is not None]
        assert len(injected) == 2
        # The injected prefix matches the pure schedule; after the limit
        # the endpoint runs clean.
        schedule = [plan.fault_for("GET /v1/ping", n) for n in range(100)]
        assert [f for f in schedule if f is not None][:2] == injected

    def test_round_trip_preserves_schedule(self):
        plan = ChaosPlan(11, {"POST /v1/cells/claim": self.spec(truncate=0.1)})
        clone = ChaosPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone.seed == plan.seed
        assert clone.specs == plan.specs
        for n in range(50):
            assert clone.fault_for("POST /v1/cells/claim", n) == plan.fault_for(
                "POST /v1/cells/claim", n
            )

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="sum"):
            ChaosSpec(drop_request=0.6, duplicate=0.6)
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            ChaosSpec(corrupt=1.5)

    def test_unmatched_endpoint_without_catchall_runs_clean(self):
        plan = ChaosPlan(5, {"GET /v1/ping": self.spec()})
        assert plan.decide("POST", "/v1/cells/claim") == (None, None)


def upstream_server():
    """A tiny JSON upstream that counts hits per (method, path)."""
    hits = {}
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *_args):
            pass

        def _serve(self):
            length = int(self.headers.get("Content-Length", 0))
            self.rfile.read(length)
            with lock:
                key = (self.command, self.path)
                hits[key] = hits.get(key, 0) + 1
                count = hits[key]
            body = json.dumps({"path": self.path, "hits": count}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        do_GET = do_POST = _serve

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, hits


@pytest.fixture()
def upstream():
    server, hits = upstream_server()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield url, hits
    finally:
        server.shutdown()
        server.server_close()


def proxy_for(upstream_url, specs, *, seed=0, ledger=None):
    return ChaosProxy(upstream_url, ChaosPlan(seed, specs), ledger=ledger)


def seed_where(specs, endpoint, fault, *, ordinal=0, limit=10_000):
    """The first seed whose plan injects ``fault`` on the ``ordinal``-th
    request of ``endpoint`` — how tests force a specific first fault."""
    for seed in range(limit):
        if ChaosPlan(seed, specs).fault_for(endpoint, ordinal) == fault:
            return seed
    raise AssertionError(f"no seed under {limit} injects {fault} on {endpoint}")


class TestChaosProxy:
    def test_clean_plan_is_transparent(self, upstream):
        url, hits = upstream
        with proxy_for(url, {}) as proxy:
            reply = HttpTransport(proxy.url).get_json("/v1/ping")
        assert reply == {"path": "/v1/ping", "hits": 1}
        assert hits[("GET", "/v1/ping")] == 1
        assert proxy.stats["faults"] == 0

    def test_drop_request_never_reaches_upstream(self, upstream, tmp_path):
        url, hits = upstream
        specs = {"*": ChaosSpec(drop_request=1.0, limit=1)}
        ledger = tmp_path / "faults.jsonl"
        with proxy_for(url, specs, ledger=ledger) as proxy:
            transport = HttpTransport(proxy.url)
            with pytest.raises(FabricError):
                transport.get_json("/v1/ping")
            # Limit exhausted: the next request passes clean.
            assert transport.get_json("/v1/ping")["hits"] == 1
        assert ("GET", "/v1/ping") in hits
        (entry,) = JsonlLog(ledger).read()
        assert entry["fault"] == "drop-request"
        assert entry["endpoint"] == "GET /v1/ping"

    def test_duplicate_processed_twice_upstream(self, upstream):
        url, hits = upstream
        specs = {"*": ChaosSpec(duplicate=1.0, limit=1)}
        with proxy_for(url, specs) as proxy:
            reply = HttpTransport(proxy.url).get_json("/v1/ping")
        # The client saw the *second* response; upstream processed both.
        assert reply["hits"] == 2
        assert hits[("GET", "/v1/ping")] == 2

    def test_drop_response_processed_but_unanswered(self, upstream):
        url, hits = upstream
        specs = {"*": ChaosSpec(drop_response=1.0, limit=1)}
        with proxy_for(url, specs) as proxy:
            with pytest.raises(FabricError):
                HttpTransport(proxy.url).get_json("/v1/ping")
        assert hits[("GET", "/v1/ping")] == 1  # the nasty case: it DID run

    def test_truncate_surfaces_as_transport_error(self, upstream):
        url, _ = upstream
        specs = {"*": ChaosSpec(truncate=1.0, limit=1)}
        with proxy_for(url, specs) as proxy:
            with pytest.raises(FabricError):
                HttpTransport(proxy.url).get_json("/v1/ping")

    def test_corrupt_keeps_framing_breaks_body(self, upstream):
        url, _ = upstream
        specs = {"*": ChaosSpec(corrupt=1.0, limit=1)}
        with proxy_for(url, specs) as proxy:
            status, text, headers = HttpTransport(proxy.url).exchange(
                "GET", "/v1/ping"
            )
        assert status == 200  # well-framed...
        assert "application/json" in headers["content-type"]
        with pytest.raises(ValueError):
            json.loads(text)  # ...full of garbage

    def test_retrying_transport_survives_what_raw_does_not(self, upstream):
        """The miniature negative control: same plan, raw transport dies on
        the first injected fault, hardened transport absorbs it."""
        url, _ = upstream
        specs = {"*": ChaosSpec(drop_request=0.4)}
        seed = seed_where(specs, "GET /v1/ping", FAULT_DROP_REQUEST)

        with proxy_for(url, specs, seed=seed) as proxy:
            raw = RetryingTransport(
                proxy.url, policy=TransportPolicy(retries=0, breaker_threshold=0)
            )
            with pytest.raises(FabricError):
                raw.get_json("/v1/ping")

        with proxy_for(url, specs, seed=seed) as proxy:
            hardened = RetryingTransport(
                proxy.url, policy=TransportPolicy(backoff_base=0.01), sleep=lambda _: None
            )
            assert hardened.get_json("/v1/ping")["path"] == "/v1/ping"
            assert hardened.stats["retries"] >= 1


# --------------------------------------------------------------- acceptance

CONFIGS = [config_by_name("Unsafe"), config_by_name("Hybrid"), config_by_name("SpecBox")]
MODELS = [AttackModel.SPECTRE, AttackModel.FUTURISTIC]


def thirty_cells():
    """5 workloads x 3 configs x 2 models = the contract's 30 cells."""
    workloads = [
        make_indirect_stream(
            f"chaos-{i}", table_words=64, iterations=12, seed=200 + i
        )
        for i in range(5)
    ]
    return [
        RunRequest(
            workload=workload,
            config=config,
            attack_model=model,
            max_instructions=2_000,
        )
        for workload in workloads
        for config in CONFIGS
        for model in MODELS
    ]


def soak_plan():
    """Every fault class on every endpoint class, with per-class limits so
    the sweep terminates in bounded wall-clock.  Claim faults are capped
    hardest: each lost-claim-response burns one lease expiry (and one cell
    retry-budget attempt) to heal."""
    all_faults = dict(
        drop_request=0.06,
        drop_response=0.05,
        delay=0.05,
        duplicate=0.05,
        truncate=0.05,
        corrupt=0.04,
        delay_seconds=0.02,
    )
    return ChaosPlan(
        seed=20260808,
        specs={
            "POST /v1/cells/claim": ChaosSpec(**all_faults, limit=8),
            "POST /v1/cells/<key>/complete": ChaosSpec(**all_faults, limit=8),
            "*": ChaosSpec(**all_faults, limit=30),
        },
    )


def done_record_counts(state_dir):
    counts = {}
    path = Path(state_dir) / "queue.jsonl"
    for line in path.read_text().splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if record.get("kind") == "done":
            counts[record["key"]] = counts.get(record["key"], 0) + 1
    return counts


@pytest.mark.slow
def test_thirty_cell_sweep_through_chaos_matches_local(tmp_path):
    requests = thirty_cells()
    assert len(requests) == 30
    exec_ledger = tmp_path / "exec.ledger"
    fault_ledger = tmp_path / "faults.jsonl"
    state_dir = tmp_path / "state"

    port = free_port()
    scheduler = start_scheduler(state_dir, port)
    proxy = ChaosProxy(
        f"http://127.0.0.1:{port}", soak_plan(), ledger=fault_ledger
    )
    proxy.start()
    workers = [
        start_worker(
            proxy.url,
            tmp_path / f"worker-{i}",
            env_extra={"REPRO_FABRIC_EXEC_LOG": str(exec_ledger)},
        )
        for i in range(2)
    ]
    try:
        retry = RetryPolicy(max_retries=5, backoff_base=0.01)
        with fabric_session(proxy.url, retries=retry) as session:
            outcomes = session.run_many(requests)
    finally:
        reap(scheduler, *workers)
        proxy.stop()

    assert all(isinstance(o, RunMetrics) for o in outcomes), [
        str(o) for o in outcomes if not isinstance(o, RunMetrics)
    ]

    # Chaos actually happened — the ledger proves what was survived.
    faults = JsonlLog(fault_ledger).read()
    assert len(faults) >= 10, faults
    assert len({f["fault"] for f in faults}) >= 3
    assert {f["fault"] for f in faults} <= set(FAULT_KINDS)

    # Zero duplicate executions: every cell ran at most once, fleet-wide.
    executed = {}
    for record in JsonlLog(exec_ledger).read():
        key = record["key"]
        executed[key] = executed.get(key, 0) + 1
    duplicates = {k: n for k, n in executed.items() if n > 1}
    assert not duplicates, f"cells executed more than once: {duplicates}"

    # Zero double-settled cells in the scheduler's durable journal.
    double_settled = {
        k: n for k, n in done_record_counts(state_dir).items() if n > 1
    }
    assert not double_settled, f"double-settled cells: {double_settled}"

    # And the headline guarantee: chaos changed nothing about the results.
    with Session(cache=CachePolicy(enabled=False)) as local:
        reference = local.run_many(requests)
    assert [o.to_dict() for o in outcomes] == [o.to_dict() for o in reference]

    # Every executed key corresponds to a submitted cell.
    submitted = {cache_key(r) for r in requests}
    assert set(executed) <= submitted
