"""Scheduler service tests: the HTTP API, event streaming, the shared
artifact store, lease expiry, and client/worker integration — all over a
real loopback ``ThreadingHTTPServer``, single process."""

import threading

import pytest

from repro.common.config import AttackModel
from repro.fabric.client import FabricClient
from repro.fabric.scheduler import FabricScheduler, make_server
from repro.fabric.transport import FabricError, HttpTransport
from repro.fabric.wire import WIRE_SCHEMA_VERSION, envelope
from repro.fabric.worker import WorkerAgent
from repro.sim.api import RunMetrics, RunRequest
from repro.sim.cache import cache_key
from repro.sim.configs import config_by_name
from repro.sim.engine import RetryPolicy
from repro.sim.events import RunEvent
from repro.sim.policies import ExecutionPolicy
from repro.workloads import make_indirect_stream

CONFIGS = [config_by_name("Unsafe"), config_by_name("Hybrid")]


def requests_for(names=("alpha", "beta")):
    return [
        RunRequest(
            workload=make_indirect_stream(
                name, table_words=64, iterations=16, seed=i
            ),
            config=config,
            attack_model=AttackModel.SPECTRE,
            max_instructions=2_000,
        )
        for i, name in enumerate(names)
        for config in CONFIGS
    ]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture()
def fabric(tmp_path):
    """A live loopback scheduler; yields (url, scheduler, state_dir)."""
    scheduler = FabricScheduler(tmp_path / "state", lease_seconds=5.0)
    server = make_server(scheduler, port=0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield url, scheduler
    finally:
        server.shutdown()
        server.server_close()
        scheduler.close()
        thread.join(timeout=5)


def run_worker(url, tmp_path, **kwargs):
    kwargs.setdefault("max_idle_seconds", 1.0)
    kwargs.setdefault("poll_interval", 0.02)
    agent = WorkerAgent(url, cache_dir=tmp_path / "worker-cache", **kwargs)
    thread = threading.Thread(target=agent.run_forever, daemon=True)
    thread.start()
    return agent, thread


class TestHttpSurface:
    def test_ping(self, fabric):
        url, _ = fabric
        reply = HttpTransport(url).get_json("/v1/ping")
        assert reply["ok"] is True
        assert reply["schema"] == WIRE_SCHEMA_VERSION

    def test_unknown_route_404(self, fabric):
        url, _ = fabric
        status, _ = HttpTransport(url).request("GET", "/v1/nonsense")
        assert status == 404

    def test_unknown_sweep_404(self, fabric):
        url, _ = fabric
        status, _ = HttpTransport(url).request("GET", "/v1/sweeps/sweep-nope")
        assert status == 404

    def test_newer_wire_schema_rejected_400(self, fabric):
        url, _ = fabric
        status, body = HttpTransport(url).request(
            "POST",
            "/v1/cells/claim",
            {"schema": WIRE_SCHEMA_VERSION + 1, "worker": "w"},
        )
        assert status == 400
        assert "newer" in body

    def test_missing_artifact_404(self, fabric):
        url, _ = fabric
        assert HttpTransport(url).get_json_or_none("/v1/artifacts/" + "0" * 8) is None


class TestSweepFlow:
    def test_client_worker_round_trip(self, fabric, tmp_path):
        url, _ = fabric
        run_worker(url, tmp_path)
        requests = requests_for()
        events = []
        client = FabricClient(url, poll_interval=0.02)
        outcomes = client.run_many(requests, emit=events.append)

        assert all(isinstance(o, RunMetrics) for o in outcomes)
        assert [o.workload for o in outcomes] == [r.workload.name for r in requests]
        kinds = [e.kind for e in events]
        assert kinds.count("queued") == len(requests)
        terminal = [k for k in kinds if k in ("finished", "cache_hit", "failed")]
        assert len(terminal) == len(requests)
        assert all(isinstance(e, RunEvent) for e in events)

    def test_artifact_store_settles_resubmission(self, fabric, tmp_path):
        url, scheduler = fabric
        run_worker(url, tmp_path)
        requests = requests_for(("gamma",))
        client = FabricClient(url, poll_interval=0.02)
        first = client.run_many(requests)

        # Second submission of the same cells: answered from the artifact
        # store without any pending work reaching the queue.
        events = []
        second = client.run_many(requests, emit=events.append)
        assert [o.to_dict() for o in second] == [o.to_dict() for o in first]
        assert {e.kind for e in events} == {"queued", "cache_hit"}
        assert scheduler.queue.pending_count() == 0

    def test_artifact_endpoint_serves_completed_cell(self, fabric, tmp_path):
        url, _ = fabric
        run_worker(url, tmp_path)
        request = requests_for(("delta",))[0]
        client = FabricClient(url, poll_interval=0.02)
        (outcome,) = client.run_many([request])
        payload = HttpTransport(url).get_json(
            f"/v1/artifacts/{cache_key(request)}"
        )
        assert RunMetrics.from_dict(payload["metrics"]) == outcome

    def test_execution_policy_rides_submission(self, fabric):
        url, scheduler = fabric
        execution = ExecutionPolicy(
            timeout=60.0, retries=RetryPolicy(max_retries=2, backoff_base=0.01)
        )
        client = FabricClient(url, execution=execution)
        reply = client.submit(requests_for(("epsilon",)))
        cell = scheduler.queue.cells[reply["keys"][0]]
        assert cell.timeout == 60.0
        assert cell.retry.max_retries == 2

    def test_empty_batch_short_circuits(self, fabric):
        url, _ = fabric
        assert FabricClient(url).run_many([]) == []

    def test_closed_client_refuses(self, fabric):
        url, _ = fabric
        client = FabricClient(url)
        client.close()
        with pytest.raises(FabricError, match="closed"):
            client.run_many(requests_for(("zeta",)))


class TestEventStream:
    def submit(self, url, names=("eta",)):
        client = FabricClient(url, poll_interval=0.02)
        reply = client.submit(requests_for(names))
        return client, reply["sweep_id"]

    def test_since_pagination(self, fabric):
        url, _ = fabric
        _, sweep_id = self.submit(url)
        transport = HttpTransport(url)
        all_events = transport.get_lines(f"/v1/sweeps/{sweep_id}/events")
        assert [e["seq"] for e in all_events] == list(range(len(all_events)))
        tail = transport.get_lines(f"/v1/sweeps/{sweep_id}/events?since=1")
        assert tail == all_events[1:]

    def test_since_past_end_clamped(self, fabric):
        url, _ = fabric
        _, sweep_id = self.submit(url)
        transport = HttpTransport(url)
        assert transport.get_lines(f"/v1/sweeps/{sweep_id}/events?since=9999") == []


class TestLeaseExpiryEndToEnd:
    """Drive the scheduler core with a fake clock (no HTTP): a vanished
    worker's cell is re-queued and eventually settles as WorkerLost."""

    def test_expiry_requeues_and_narrates(self, tmp_path):
        clock = FakeClock()
        scheduler = FabricScheduler(
            tmp_path / "state", lease_seconds=5.0, clock=clock
        )
        try:
            reply = scheduler.submit(
                envelope(
                    requests=[r.to_dict() for r in requests_for(("theta",))[:1]],
                    execution=ExecutionPolicy(
                        retries=RetryPolicy(max_retries=1, backoff_base=0.01)
                    ).to_dict(),
                )
            )
            sweep_id = reply["sweep_id"]
            claimed = scheduler.claim(envelope(worker="doomed"))
            assert claimed["cell"] is not None

            clock.now = 6.0  # lease (5s) expired; next status call notices
            status = scheduler.status(sweep_id)
            assert status["pending"] == 1
            kinds = [e["kind"] for e in scheduler.events_since(sweep_id, 0)]
            assert "retrying" in kinds

            # Second claim + second expiry exhausts the 1-retry budget.
            assert scheduler.claim(envelope(worker="doomed-2"))["cell"] is not None
            clock.now = 12.0
            status = scheduler.status(sweep_id, include_outcomes=True)
            assert status["complete"] is True
            (outcome,) = status["outcomes"]
            assert outcome["kind"] == "failure"
            assert outcome["payload"]["error_type"] == "WorkerLost"
            assert outcome["payload"]["attempts"] == 2
        finally:
            scheduler.close()

    def test_restart_regenerates_event_history(self, tmp_path):
        clock = FakeClock()
        scheduler = FabricScheduler(tmp_path / "state", clock=clock)
        reply = scheduler.submit(
            envelope(
                requests=[r.to_dict() for r in requests_for(("iota",))[:2]],
                execution=None,
            )
        )
        sweep_id = reply["sweep_id"]
        claimed = scheduler.claim(envelope(worker="w"))
        key = claimed["cell"]["key"]
        metrics = RunMetrics(
            workload="iota",
            config="Unsafe",
            attack_model=AttackModel.SPECTRE,
            cycles=10,
            instructions=8,
        )
        from repro.fabric.wire import encode_outcome

        scheduler.complete(key, envelope(worker="w", outcome=encode_outcome(metrics)))
        scheduler.close()

        reborn = FabricScheduler(tmp_path / "state", clock=clock)
        try:
            kinds = [e["kind"] for e in reborn.events_since(sweep_id, 0)]
            # Regenerated narration: both cells queued, the settled one
            # terminal again (at-least-once delivery).
            assert kinds.count("queued") == 2
            assert kinds.count("finished") == 1
            status = reborn.status(sweep_id)
            assert status["done"] == 1
            assert status["pending"] == 1
        finally:
            reborn.close()


class TestHardening:
    """Wire-v3 hardening: admission control, /v1/health, idempotency-token
    dedup on submissions and completions, artifact CRC-32."""

    def submit_payload(self, names=("lam",), token=None, retries=None):
        execution = None
        if retries is not None:
            execution = ExecutionPolicy(retries=retries).to_dict()
        payload = envelope(
            requests=[r.to_dict() for r in requests_for(names)],
            execution=execution,
        )
        if token is not None:
            payload["token"] = token
        return payload

    def shaped_payload(self, iterations, token=None):
        """A 2-cell submission whose *shape* (not just name) varies with
        ``iterations`` — names are rebranded out of the content-addressed
        cache key, so distinct shapes are what make distinct cells."""
        from repro.workloads import make_indirect_stream

        requests = [
            RunRequest(
                workload=make_indirect_stream(
                    f"wl-{iterations}", table_words=64, iterations=iterations, seed=0
                ),
                config=config,
                attack_model=AttackModel.SPECTRE,
                max_instructions=2_000,
            )
            for config in CONFIGS
        ]
        payload = envelope(requests=[r.to_dict() for r in requests], execution=None)
        if token is not None:
            payload["token"] = token
        return payload

    def test_admission_full_raises_then_admits_after_drain(self, tmp_path):
        scheduler = FabricScheduler(tmp_path / "state", max_pending=2)
        try:
            from repro.fabric.scheduler import AdmissionFull

            scheduler.submit(self.shaped_payload(16))  # 2 cells pending
            with pytest.raises(AdmissionFull) as excinfo:
                scheduler.submit(self.shaped_payload(18))
            assert excinfo.value.retry_after > 0
            # Drain one cell; the *resubmission* of the same two cells is
            # admitted (its keys are already known, so incoming is 0).
            claimed = scheduler.claim(envelope(worker="w"))
            from repro.fabric.wire import encode_outcome

            scheduler.complete(
                claimed["cell"]["key"],
                envelope(
                    worker="w",
                    outcome=encode_outcome(
                        RunMetrics(
                            workload="wl-16",
                            config="Unsafe",
                            attack_model=AttackModel.SPECTRE,
                            cycles=1,
                            instructions=1,
                        )
                    ),
                ),
            )
            scheduler.submit(self.shaped_payload(16))
        finally:
            scheduler.close()

    def test_admission_over_http_is_429_with_retry_after(self, tmp_path):
        scheduler = FabricScheduler(tmp_path / "state", max_pending=1)
        server = make_server(scheduler, port=0)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            transport = HttpTransport(url)
            status, _, _ = transport.exchange(
                "POST", "/v1/sweeps", self.submit_payload(("xi",))
            )
            assert status == 429
            _, text, headers = transport.exchange(
                "POST", "/v1/sweeps", self.submit_payload(("xi",))
            )
            assert float(headers["retry-after"]) >= 1
            assert "max_pending" in text
        finally:
            server.shutdown()
            server.server_close()
            scheduler.close()
            thread.join(timeout=5)

    def test_health_endpoint(self, fabric):
        url, scheduler = fabric
        FabricClient(url).submit(requests_for(("omicron",)))
        reply = HttpTransport(url).get_json("/v1/health")
        assert reply["ok"] is True
        assert reply["pending"] == len(CONFIGS)
        assert reply["leased"] == 0
        assert reply["done"] == 0
        assert reply["uptime"] >= 0
        assert reply["max_pending"] is None
        assert reply["lease_seconds"] == scheduler.lease_seconds
        assert reply["compactions"] == scheduler.queue.compactions

    def test_duplicate_submission_token_resolves_to_original_sweep(self, fabric):
        url, scheduler = fabric
        transport = HttpTransport(url)
        first = transport.post_json(
            "/v1/sweeps", self.submit_payload(("pi",), token="sub-1")
        )
        again = transport.post_json(
            "/v1/sweeps", self.submit_payload(("pi",), token="sub-1")
        )
        assert again["sweep_id"] == first["sweep_id"]
        assert again["keys"] == first["keys"]
        assert again.get("deduplicated") is True
        assert len(scheduler.queue.sweeps) == 1

    def test_duplicate_completion_token_replays_without_renarration(self, tmp_path):
        scheduler = FabricScheduler(tmp_path / "state")
        try:
            from repro.fabric.wire import encode_outcome

            reply = scheduler.submit(self.submit_payload(("rho",)))
            sweep_id = reply["sweep_id"]
            claimed = scheduler.claim(envelope(worker="w"))
            key = claimed["cell"]["key"]
            outcome = RunMetrics(
                workload="rho",
                config="Unsafe",
                attack_model=AttackModel.SPECTRE,
                cycles=10,
                instructions=8,
            )
            completion = envelope(
                worker="w", outcome=encode_outcome(outcome), token="w:k:1"
            )
            first = scheduler.complete(key, completion)
            assert first["decision"] == "done"
            events_before = scheduler.events_since(sweep_id, 0)

            replay = scheduler.complete(key, completion)
            assert replay["decision"] == "done"
            assert replay.get("replayed") is True
            # The duplicated delivery must not re-narrate the terminal event.
            assert scheduler.events_since(sweep_id, 0) == events_before
        finally:
            scheduler.close()

    def test_flipped_artifact_is_never_served(self, tmp_path):
        """Regression: the scheduler used to re-stamp a fresh CRC over
        whatever its store returned, so a digit flipped on disk reached the
        worker as a valid artifact.  Now the stored CRC is checked first:
        the flipped entry is answered from the queue's own ``done``
        outcome, or not at all."""
        from repro.fabric.wire import encode_outcome

        scheduler = FabricScheduler(tmp_path / "state")
        try:
            scheduler.submit(self.submit_payload(("tau",)))
            key = scheduler.claim(envelope(worker="w"))["cell"]["key"]
            settled = RunMetrics(
                workload="tau",
                config="Unsafe",
                attack_model=AttackModel.SPECTRE,
                cycles=1234,
                instructions=8,
            )
            scheduler.complete(
                key, envelope(worker="w", outcome=encode_outcome(settled))
            )
            orphan = "f" * 64  # stored, but no queue record to fall back on
            scheduler.store.put_key(orphan, settled)
            for stored in (key, orphan):
                path = scheduler.store.path_for(stored)
                text = path.read_text()
                assert '"cycles": 1234' in text
                path.write_text(text.replace('"cycles": 1234', '"cycles": 2234'))

            assert scheduler.artifact(key)["metrics"] == settled.to_dict()
            assert scheduler.artifact(orphan) is None
        finally:
            scheduler.close()

    def test_artifact_payload_carries_matching_crc(self, fabric, tmp_path):
        from repro.fabric.wire import payload_crc32

        url, _ = fabric
        run_worker(url, tmp_path)
        request = requests_for(("sigma",))[0]
        client = FabricClient(url, poll_interval=0.02)
        client.run_many([request])
        payload = HttpTransport(url).get_json(f"/v1/artifacts/{cache_key(request)}")
        assert payload["crc32"] == payload_crc32(payload["metrics"])


class TestWorkerCaches:
    def test_local_cache_answers_without_execution(self, fabric, tmp_path):
        url, scheduler = fabric
        requests = requests_for(("kappa",))
        client = FabricClient(url, poll_interval=0.02)

        agent1, thread1 = run_worker(url, tmp_path)
        client.run_many(requests)
        thread1.join(timeout=10)
        assert agent1.stats["executed"] == len(requests)

        # Wipe the scheduler's artifact store, keep the worker-local cache:
        # a re-submission must be answered from the worker's cache, with
        # zero simulator executions.
        import shutil

        shutil.rmtree(scheduler.store.root)
        for cell in list(scheduler.queue.cells.values()):
            cell.state = "pending"
            cell.outcome = None
        agent2, thread2 = run_worker(url, tmp_path)
        client.run_many(requests)
        thread2.join(timeout=10)
        assert agent2.stats["executed"] == 0
        assert agent2.stats["local_cache_hits"] == len(requests)
