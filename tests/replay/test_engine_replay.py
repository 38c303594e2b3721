"""Replay wired through the sweep engine, Session policy and CLI.

The backend is opt-in (`ExecutionPolicy(replay=True)` / `repro sweep
--replay`) and must be *invisible* in results: every test here runs the
same cells live and replayed and demands identical outcomes through each
integration layer — serial engine, worker pool, Session, and the
command line.
"""

import pytest

from repro.common.config import AttackModel
from repro.replay.store import TraceStore
from repro.sim.api import RunRequest, Session
from repro.sim.configs import config_by_name
from repro.sim.engine import SweepEngine
from repro.sim.policies import CachePolicy, ExecutionPolicy
from repro.workloads import make_mixed_kernel, make_pointer_chase

WORKLOADS = [
    make_mixed_kernel("er_mixed", table_words=1024, iterations=20, seed=21),
    make_pointer_chase("er_chase", nodes=512, iterations=30, seed=22,
                       warm_table=False),
]
CONFIGS = [config_by_name(name) for name in ("Unsafe", "Hybrid")]


def _requests():
    return [
        RunRequest(workload=w, config=c, attack_model=AttackModel.SPECTRE)
        for w in WORKLOADS
        for c in CONFIGS
    ]


def _dicts(outcomes):
    return [outcome.to_dict() for outcome in outcomes]


@pytest.fixture(scope="module")
def live_outcomes():
    return _dicts(SweepEngine(jobs=1).run(_requests()))


def test_serial_engine_replay_is_identical(tmp_path, live_outcomes):
    store = TraceStore(tmp_path / "traces")
    outcomes = SweepEngine(jobs=1, trace_store=store).run(_requests())
    assert _dicts(outcomes) == live_outcomes
    # One trace per workload, not per cell.
    assert len(store) == len(WORKLOADS)


def test_pool_engine_replay_is_identical(tmp_path, live_outcomes):
    store = TraceStore(tmp_path / "traces")
    outcomes = SweepEngine(jobs=2, trace_store=store).run(_requests())
    assert _dicts(outcomes) == live_outcomes


def test_truncated_trace_falls_back_to_live(tmp_path, live_outcomes, capsys):
    """Torn trace files on disk must cost only speed, never correctness."""
    store = TraceStore(tmp_path / "traces")
    engine = SweepEngine(jobs=1, trace_store=store)
    engine._prepare_traces(_requests(), range(len(_requests())))
    for path in (tmp_path / "traces").rglob("*.trace"):
        path.write_bytes(path.read_bytes()[:40])
    assert _dicts(engine.run(_requests())) == live_outcomes


def test_recording_failure_is_not_fatal(tmp_path, live_outcomes, capsys):
    """`_prepare_traces` is an accelerator: if recording itself blows up,
    the sweep must still complete live."""
    store = TraceStore(tmp_path / "traces")
    engine = SweepEngine(jobs=1, trace_store=store)
    engine.trace_store.put = lambda *a, **k: (_ for _ in ()).throw(OSError("disk"))
    assert _dicts(engine.run(_requests())) == live_outcomes
    assert "cell will run live" in capsys.readouterr().err


def test_session_replay_policy(tmp_path, live_outcomes):
    session = Session(
        execution=ExecutionPolicy(replay=True),
        cache=CachePolicy(enabled=False, cache_dir=str(tmp_path)),
    )
    assert session.trace_store is not None
    assert session.trace_store.root == tmp_path / "traces"
    outcomes = session.run_many(_requests())
    assert _dicts(outcomes) == live_outcomes
    assert len(session.trace_store) == len(WORKLOADS)


def test_session_without_replay_has_no_store():
    session = Session(cache=CachePolicy(enabled=False))
    assert session.trace_store is None
    assert session.engine.trace_store is None


def test_session_replay_store_sits_beside_cache(tmp_path):
    session = Session(
        execution=ExecutionPolicy(replay=True),
        cache=CachePolicy(cache_dir=str(tmp_path / "cache")),
    )
    assert session.trace_store.root == tmp_path / "cache" / "traces"


def test_cli_sweep_replay_flag(capsys, tmp_path):
    from repro.__main__ import main

    cache_dir = tmp_path / "cache"
    args = [
        "sweep",
        "--workloads", "exchange2_like",
        "--configs", "STT{ld}",
        "--models", "spectre",
        "--scale", "0.05",
        "--cache-dir", str(cache_dir),
        "--replay",
    ]
    assert main(args) == 0
    assert "Figure 6" in capsys.readouterr().out
    assert list((cache_dir / "traces").rglob("*.trace")), (
        "--replay should leave recorded traces beside the result cache"
    )
