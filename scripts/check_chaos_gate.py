#!/usr/bin/env python
"""Prove the chaos-soak CI gate actually fires.

The ``chaos-soak`` CI job drives a full sweep through a fault-injecting
proxy and asserts bit-identical results (``tests/fabric/test_chaos.py``).
That gate is only meaningful if the *hardening* — the retrying transport,
idempotency tokens, circuit breaker — is what makes the sweep survive.
This script is the negative control: it runs the same seeded fault plan
twice against a live scheduler and checks both directions:

1. **Un-hardened fails.**  A client with the retry layer disabled
   (``TransportPolicy(retries=0, breaker_threshold=0)``) dies with a
   ``FabricError`` on the plan's first injected submission fault.  If it
   survives, the chaos plan is not actually exercising the transport and
   the soak is vacuous — exit 1.
2. **Hardened survives.**  The default client absorbs the same faults,
   the submission lands exactly once (no twin sweep from the retries),
   and the fault ledger proves faults were really injected.

It also round-trips the plan through JSON and checks the replayed
schedule is identical — the serialized plan a failure report embeds must
reproduce the exact faults.

Usage:

    PYTHONPATH=src python scripts/check_chaos_gate.py

Exit status: 0 when the gate is proven sensitive, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.common.config import AttackModel
from repro.common.durable import JsonlLog
from repro.fabric.chaos import ChaosPlan, ChaosProxy, ChaosSpec
from repro.fabric.client import FabricClient
from repro.fabric.scheduler import FabricScheduler, make_server
from repro.fabric.transport import FabricError, TransportPolicy
from repro.sim.api import RunRequest
from repro.sim.configs import config_by_name
from repro.workloads import make_indirect_stream

#: Every fault class that can hit a submission, weighted so roughly half
#: of all seeds inject one on the very first ``POST /v1/sweeps``; ``limit``
#: guarantees the hardened client's retry budget outlasts the faults.
SPECS = {
    "POST /v1/sweeps": ChaosSpec(
        drop_request=0.2, drop_response=0.15, truncate=0.15, corrupt=0.1, limit=3
    )
}

SUBMIT_ENDPOINT = "POST /v1/sweeps"


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def first_faulty_seed() -> tuple[int, str]:
    """The first seed whose plan faults the very first submission."""
    for seed in range(10_000):
        fault = ChaosPlan(seed, SPECS).fault_for(SUBMIT_ENDPOINT, 0)
        if fault is not None:
            return seed, fault
    raise AssertionError("no faulty seed in 10k — rates are broken")


def tiny_batch() -> list[RunRequest]:
    workload = make_indirect_stream("gate", table_words=64, iterations=8, seed=7)
    return [
        RunRequest(
            workload=workload,
            config=config_by_name("Unsafe"),
            attack_model=AttackModel.SPECTRE,
            max_instructions=2_000,
        )
    ]


def main() -> int:
    seed, fault = first_faulty_seed()
    print(f"seed {seed} injects '{fault}' on the first {SUBMIT_ENDPOINT}")

    plan = ChaosPlan(seed, SPECS)
    clone = ChaosPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    schedule = [plan.fault_for(SUBMIT_ENDPOINT, n) for n in range(64)]
    if [clone.fault_for(SUBMIT_ENDPOINT, n) for n in range(64)] != schedule:
        fail("serialized plan does not replay the same fault schedule")
    print("serialized plan replays the identical schedule")

    with tempfile.TemporaryDirectory() as tmp:
        scheduler = FabricScheduler(Path(tmp) / "state")
        server = make_server(scheduler, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        upstream = "http://127.0.0.1:%d" % server.server_address[1]
        ledger = Path(tmp) / "faults.jsonl"
        try:
            # 1. Un-hardened client must die on the first injected fault.
            with ChaosProxy(upstream, ChaosPlan(seed, SPECS)) as proxy:
                raw = FabricClient(
                    proxy.url,
                    transport_policy=TransportPolicy(
                        retries=0, breaker_threshold=0
                    ),
                )
                try:
                    raw.submit(tiny_batch())
                except FabricError as exc:
                    print(f"un-hardened client failed as required: {exc}")
                else:
                    fail(
                        "un-hardened client survived the fault plan — "
                        "the chaos gate is vacuous"
                    )

            # 2. The hardened default client must absorb the same plan.
            # (The raw client's doomed submission may still have reached the
            # scheduler — drop-response/truncate/corrupt all lose only the
            # reply — so count sweeps relative to this point.)
            sweeps_before = len(scheduler.queue.sweeps)
            with ChaosProxy(
                upstream, ChaosPlan(seed, SPECS), ledger=ledger
            ) as proxy:
                hardened = FabricClient(
                    proxy.url,
                    transport_policy=TransportPolicy(backoff_base=0.01),
                )
                reply = hardened.submit(tiny_batch())
                if not reply.get("sweep_id"):
                    fail(f"hardened submit returned no sweep id: {reply}")
                retries = hardened.transport.stats["retries"]
                if retries < 1:
                    fail("hardened client needed no retries — no fault hit it")
                print(
                    f"hardened client survived with {retries} "
                    f"retr{'y' if retries == 1 else 'ies'}"
                )

            faults = JsonlLog(ledger).read()
            if not faults:
                fail("fault ledger is empty — the proxy injected nothing")
            print(f"ledger records {len(faults)} injected fault(s)")

            # The retried submission must not have enqueued a twin sweep.
            created = len(scheduler.queue.sweeps) - sweeps_before
            if created != 1:
                fail(
                    f"retried submission created {created} sweeps, expected "
                    f"exactly 1 — idempotency tokens are not deduplicating"
                )
            print("retried submission deduplicated to a single sweep")
        finally:
            server.shutdown()
            server.server_close()
            scheduler.close()

    print("chaos gate verified: hardening is load-bearing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
