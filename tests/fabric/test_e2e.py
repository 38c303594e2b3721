"""Fabric acceptance tests, per the PR contract:

* a 20-cell sweep routed through a scheduler subprocess and two worker
  subprocesses — with injected crash and timeout faults — produces
  **bit-identical** outcomes to the same sweep run by a local in-process
  ``Session``;
* ``kill -9`` of the scheduler mid-sweep, followed by a restart on the
  same state directory, resumes from the durable queue **without
  re-running completed cells** (proved by the workers' execution ledger).

These are real-process tests (``subprocess`` + loopback HTTP), so they
carry the ``slow`` marker; CI runs them in a dedicated ``fabric-e2e`` job.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.common.config import AttackModel
from repro.common.durable import JsonlLog
from repro.sim import CachePolicy, ExecutionPolicy, Session
from repro.sim.api import RunMetrics, RunRequest
from repro.sim.configs import config_by_name
from repro.sim.engine import RetryPolicy
from repro.testing.faults import FaultPlan, FaultSpec
from repro.workloads import make_indirect_stream

pytestmark = pytest.mark.slow

REPO_ROOT = Path(__file__).resolve().parents[2]
CONFIGS = [config_by_name("Unsafe"), config_by_name("Hybrid")]
MODELS = [AttackModel.SPECTRE, AttackModel.FUTURISTIC]


def twenty_cells():
    """5 workloads x 2 configs x 2 models = the contract's 20 cells."""
    workloads = [
        make_indirect_stream(
            f"e2e-{i}", table_words=64, iterations=12, seed=100 + i
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


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def child_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(extra)
    return env


def start_scheduler(state_dir, port):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "fabric", "serve",
            "--state-dir", str(state_dir), "--port", str(port),
            "--lease-seconds", "10",
        ],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=REPO_ROOT,
    )
    ready = proc.stdout.readline()
    assert re.search(r"listening on http://", ready), (
        f"scheduler failed to start: {ready!r}"
    )
    return proc


def start_worker(url, cache_dir, *, max_idle="30", env_extra=None):
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "fabric", "work", url,
            "--cache-dir", str(cache_dir), "--max-idle", max_idle,
        ],
        env=child_env(**(env_extra or {})),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=REPO_ROOT,
    )


def reap(*procs):
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)


def fabric_session(url, *, timeout=None, retries=0):
    return Session(
        execution=ExecutionPolicy(fabric=url, timeout=timeout, retries=retries),
        cache=CachePolicy(enabled=False),
    )


def count_done(state_dir):
    path = Path(state_dir) / "queue.jsonl"
    if not path.exists():
        return set()
    done = set()
    for line in path.read_text().splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if record.get("kind") == "done":
            done.add(record["key"])
    return done


def ledger_counts(path):
    counts = {}
    for record in JsonlLog(path).read():
        key = record["key"]
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_twenty_cell_sweep_with_faults_matches_local(tmp_path):
    """Crash + hang(timeout) faults on the fabric; retries absorb both; the
    final 20 outcomes are bit-identical to an undisturbed local sweep."""
    requests = twenty_cells()
    assert len(requests) == 20

    plan = FaultPlan(
        {
            # First attempt of every e2e-0 cell crashes; retry succeeds.
            "e2e-0": FaultSpec("crash", times=1),
            # First attempt of e2e-1/Hybrid wedges until the 3s wall-clock
            # kill classifies it as a timeout; retry succeeds.
            "e2e-1/Hybrid": FaultSpec("hang", times=1, seconds=60.0),
        },
        state_dir=tmp_path / "fault-state",
    )
    plan_path = tmp_path / "fault-plan.json"
    plan_path.write_text(json.dumps(plan.to_dict()))

    port = free_port()
    url = f"http://127.0.0.1:{port}"
    scheduler = start_scheduler(tmp_path / "state", port)
    workers = [
        start_worker(
            url,
            tmp_path / f"worker-{i}",
            env_extra={"REPRO_FAULT_PLAN": str(plan_path)},
        )
        for i in range(2)
    ]
    try:
        retry = RetryPolicy(max_retries=2, backoff_base=0.01)
        with fabric_session(url, timeout=3.0, retries=retry) as session:
            outcomes = session.run_many(requests)
    finally:
        reap(scheduler, *workers)

    assert all(isinstance(o, RunMetrics) for o in outcomes), [
        str(o) for o in outcomes if not isinstance(o, RunMetrics)
    ]

    with Session(cache=CachePolicy(enabled=False)) as local:
        reference = local.run_many(requests)
    assert [o.to_dict() for o in outcomes] == [o.to_dict() for o in reference]


def test_kill_dash_nine_resume_without_rerunning(tmp_path):
    """kill -9 the scheduler once cells have settled; restart it on the
    same state dir; the sweep finishes and the execution ledger shows no
    completed cell was executed again."""
    requests = twenty_cells()[:10]
    ledger = tmp_path / "exec.ledger"
    state_dir = tmp_path / "state"

    # Pace execution (~0.25s/cell) so the kill lands mid-sweep.
    plan = FaultPlan(
        {f"e2e-{i}": FaultSpec("slow", seconds=0.25) for i in range(5)},
        state_dir=tmp_path / "fault-state",
    )
    plan_path = tmp_path / "fault-plan.json"
    plan_path.write_text(json.dumps(plan.to_dict()))
    worker_env = {
        "REPRO_FAULT_PLAN": str(plan_path),
        "REPRO_FABRIC_EXEC_LOG": str(ledger),
    }

    port = free_port()
    url = f"http://127.0.0.1:{port}"
    scheduler = start_scheduler(state_dir, port)
    worker = start_worker(url, tmp_path / "worker-cache", env_extra=worker_env)

    outcomes = []
    errors = []

    def submit():
        try:
            with fabric_session(url) as session:
                outcomes.extend(session.run_many(requests))
        except Exception as exc:  # surfaced in the main thread below
            errors.append(exc)

    client = threading.Thread(target=submit, daemon=True)
    client.start()
    restarted = None
    try:
        deadline = time.monotonic() + 60
        while len(count_done(state_dir)) < 3:
            assert time.monotonic() < deadline, "no progress before kill"
            assert scheduler.poll() is None
            time.sleep(0.05)

        os.kill(scheduler.pid, signal.SIGKILL)
        scheduler.wait(timeout=10)
        done_at_kill = count_done(state_dir)
        ledger_at_kill = ledger_counts(ledger)
        assert len(done_at_kill) >= 3

        time.sleep(1.0)  # a real restart window, with client + worker live
        restarted = start_scheduler(state_dir, port)

        client.join(timeout=120)
        assert not client.is_alive(), "client never finished after restart"
        assert not errors, errors
    finally:
        reap(scheduler, *( [restarted] if restarted else [] ), worker)

    assert len(outcomes) == 10
    assert all(isinstance(o, RunMetrics) for o in outcomes), [
        str(o) for o in outcomes if not isinstance(o, RunMetrics)
    ]

    # The durable-queue guarantee: cells settled before the kill were not
    # executed again afterwards — their ledger counts did not move.
    final_ledger = ledger_counts(ledger)
    for key in done_at_kill:
        assert final_ledger.get(key) == ledger_at_kill.get(key), (
            f"cell {key} re-executed after scheduler restart"
        )

    with Session(cache=CachePolicy(enabled=False)) as local:
        reference = local.run_many(requests)
    assert [o.to_dict() for o in outcomes] == [o.to_dict() for o in reference]
