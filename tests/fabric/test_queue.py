"""Unit tests for the durable fabric queue: leases, retries, crash
recovery, torn journals."""

import dataclasses
import json

import pytest

from repro.common.config import AttackModel
from repro.common.durable import CorruptLogError
from repro.fabric.queue import FabricQueue, worker_lost_failure
from repro.fabric.wire import CELL_DONE, CELL_LEASED, CELL_PENDING
from repro.sim.api import FAILURE_CRASH, FAILURE_HANG, RunFailure, RunMetrics
from repro.sim.engine import RetryPolicy

RETRY_ONCE = RetryPolicy(max_retries=1, backoff_base=0.01)
NO_RETRY = RetryPolicy(max_retries=0)


def request_dict(name="wl", config="Hybrid"):
    """The minimal request shape the queue itself touches (full RunRequest
    bodies ride through it opaquely — the scheduler tests cover those)."""
    return {
        "workload": {"name": name},
        "config": {"name": config},
        "attack_model": "spectre",
    }


def metrics(name="wl", config="Hybrid", cycles=100):
    return RunMetrics(
        workload=name,
        config=config,
        attack_model=AttackModel.SPECTRE,
        cycles=cycles,
        instructions=80,
    )


def failure(name="wl", config="Hybrid", kind=FAILURE_CRASH, attempts=1):
    return RunFailure(
        workload=name,
        config=config,
        attack_model=AttackModel.SPECTRE,
        error_type="RuntimeError",
        message="boom",
        kind=kind,
        attempts=attempts,
    )


def make_queue(tmp_path, *, retry=NO_RETRY, cells=("k1", "k2"), timeout=None):
    queue = FabricQueue(tmp_path / "queue.jsonl")
    queue.submit(
        "sweep-0",
        [(key, request_dict(name=f"wl-{key}")) for key in cells],
        retry=retry,
        timeout=timeout,
    )
    return queue


class TestLifecycle:
    def test_submit_then_claim_fifo(self, tmp_path):
        queue = make_queue(tmp_path)
        first = queue.claim("w1", lease_seconds=10, now=0.0)
        second = queue.claim("w2", lease_seconds=10, now=0.0)
        assert (first.key, second.key) == ("k1", "k2")
        assert first.state == CELL_LEASED
        assert first.attempts == 1
        assert queue.claim("w3", lease_seconds=10, now=0.0) is None

    def test_duplicate_sweep_id_rejected(self, tmp_path):
        queue = make_queue(tmp_path)
        with pytest.raises(ValueError, match="already submitted"):
            queue.submit("sweep-0", [("k9", request_dict())], retry=NO_RETRY)

    def test_complete_settles_and_orders_outcomes(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.claim("w1", lease_seconds=10, now=0.0)
        queue.claim("w1", lease_seconds=10, now=0.0)
        assert queue.complete("k2", metrics(cycles=2)) == "done"
        assert queue.complete("k1", metrics(cycles=1)) == "done"
        outcomes = queue.sweep_outcomes("sweep-0")
        assert [o.cycles for o in outcomes] == [1, 2]

    def test_duplicate_completion_is_stale(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.claim("w1", lease_seconds=10, now=0.0)
        assert queue.complete("k1", metrics()) == "done"
        assert queue.complete("k1", metrics(cycles=999)) == "stale"
        assert queue.cells["k1"].outcome.cycles == 100

    def test_shared_cell_across_sweeps_settles_both(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("sweep-1", [("k1", request_dict())], retry=NO_RETRY)
        queue.claim("w1", lease_seconds=10, now=0.0)
        queue.complete("k1", metrics())
        assert queue.sweep_outcomes("sweep-1")[0] is not None

    def test_heartbeat_extends_only_own_lease(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.claim("w1", lease_seconds=10, now=0.0)
        assert queue.heartbeat("k1", "w1", lease_seconds=10, now=5.0)
        assert not queue.heartbeat("k1", "intruder", lease_seconds=10, now=5.0)
        assert not queue.heartbeat("k2", "w1", lease_seconds=10, now=5.0)
        assert queue.cells["k1"].lease.deadline == 15.0


class TestLeaseExpiry:
    def test_expired_lease_requeues_with_budget(self, tmp_path):
        queue = make_queue(tmp_path, retry=RETRY_ONCE, cells=("k1",))
        queue.claim("w1", lease_seconds=10, now=0.0)
        expired = queue.expire_leases(now=10.1)
        assert [c.key for c in expired] == ["k1"]
        cell = queue.cells["k1"]
        assert cell.state == CELL_PENDING
        assert cell.attempts == 1
        assert cell.last_failure.error_type == "WorkerLost"
        assert cell.last_failure.kind == FAILURE_CRASH

    def test_live_lease_not_expired(self, tmp_path):
        queue = make_queue(tmp_path, cells=("k1",))
        queue.claim("w1", lease_seconds=10, now=0.0)
        assert queue.expire_leases(now=9.9) == []
        assert queue.cells["k1"].state == CELL_LEASED

    def test_expiry_without_budget_settles_worker_lost(self, tmp_path):
        queue = make_queue(tmp_path, retry=NO_RETRY, cells=("k1",))
        queue.claim("w1", lease_seconds=10, now=0.0)
        queue.expire_leases(now=11.0)
        cell = queue.cells["k1"]
        assert cell.done
        assert isinstance(cell.outcome, RunFailure)
        assert cell.outcome.error_type == "WorkerLost"

    def test_worker_lost_failure_identity_from_request(self, tmp_path):
        queue = make_queue(tmp_path, cells=("k1",))
        cell = queue.claim("w9", lease_seconds=10, now=0.0)
        lost = worker_lost_failure(cell, "w9")
        assert lost.workload == "wl-k1"
        assert "w9" in lost.message


class TestRetries:
    def test_transient_failure_requeues_then_settles(self, tmp_path):
        queue = make_queue(tmp_path, retry=RETRY_ONCE, cells=("k1",))
        queue.claim("w1", lease_seconds=10, now=0.0)
        assert queue.complete("k1", failure(kind=FAILURE_CRASH)) == "retry"
        assert queue.cells["k1"].state == CELL_PENDING
        queue.claim("w2", lease_seconds=10, now=1.0)
        assert queue.cells["k1"].attempts == 2
        assert queue.complete("k1", failure(kind=FAILURE_CRASH)) == "done"
        assert queue.cells["k1"].outcome.attempts == 2

    def test_deterministic_failure_not_retried(self, tmp_path):
        queue = make_queue(tmp_path, retry=RETRY_ONCE, cells=("k1",))
        queue.claim("w1", lease_seconds=10, now=0.0)
        assert queue.complete("k1", failure(kind=FAILURE_HANG)) == "done"


class TestDurability:
    def reload(self, tmp_path):
        queue = FabricQueue(tmp_path / "queue.jsonl")
        queue.load()
        return queue

    def test_done_cells_survive_restart(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.claim("w1", lease_seconds=10, now=0.0)
        queue.complete("k1", metrics(cycles=42))
        queue.close()

        reloaded = self.reload(tmp_path)
        assert reloaded.cells["k1"].done
        assert reloaded.cells["k1"].outcome.cycles == 42
        assert reloaded.cells["k2"].state == CELL_PENDING
        assert reloaded.sweeps["sweep-0"].cells == ["k1", "k2"]

    def test_leases_do_not_survive_restart(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.claim("w1", lease_seconds=10, now=0.0)
        queue.close()

        reloaded = self.reload(tmp_path)
        cell = reloaded.cells["k1"]
        assert cell.state == CELL_PENDING
        assert cell.lease is None
        # The claim-time attempt increment is lease bookkeeping, not a
        # journalled attempt — only *failed* attempts are durable.
        assert cell.attempts == 0

    def test_retry_budget_survives_restart(self, tmp_path):
        queue = make_queue(tmp_path, retry=RETRY_ONCE, cells=("k1",))
        queue.claim("w1", lease_seconds=10, now=0.0)
        assert queue.complete("k1", failure()) == "retry"
        queue.close()

        reloaded = self.reload(tmp_path)
        cell = reloaded.cells["k1"]
        assert cell.state == CELL_PENDING
        assert cell.attempts == 1  # the journalled failed attempt
        reloaded.claim("w2", lease_seconds=10, now=0.0)
        # Attempt 2 fails; budget (1 retry) is exhausted *because* the
        # pre-restart attempt was remembered.
        assert reloaded.complete("k1", failure()) == "done"

    def test_torn_trailing_line_skipped(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.claim("w1", lease_seconds=10, now=0.0)
        queue.complete("k1", metrics())
        queue.close()

        path = tmp_path / "queue.jsonl"
        path.write_text(path.read_text() + '{"kind": "done", "key": "k2", "outc')

        reloaded = self.reload(tmp_path)
        assert reloaded.cells["k1"].done
        assert reloaded.cells["k2"].state == CELL_PENDING

    def test_unknown_record_kind_rejected_but_tolerated_on_load(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.close()
        path = tmp_path / "queue.jsonl"
        path.write_text(
            path.read_text() + json.dumps({"kind": "mystery", "key": "k1"}) + "\n"
        )
        reloaded = self.reload(tmp_path)  # load() skips what it can't apply
        assert reloaded.cells["k1"].state == CELL_PENDING
        with pytest.raises(ValueError, match="unknown queue record kind"):
            reloaded._apply({"kind": "mystery", "key": "k1"})

    def test_restart_after_torn_tail_appends_cleanly(self, tmp_path):
        """The torn fragment is cut before the next append, so a second
        restart does not find it glued to a record mid-file."""
        queue = make_queue(tmp_path)
        queue.close()
        path = tmp_path / "queue.jsonl"
        path.write_text(path.read_text() + '{"kind": "done", "key": "k2", "outc')

        reloaded = self.reload(tmp_path)
        reloaded.claim("w1", lease_seconds=10, now=0.0)
        reloaded.complete("k1", metrics(cycles=7))
        reloaded.close()
        assert self.reload(tmp_path).cells["k1"].outcome.cycles == 7

    def garble_line(self, tmp_path, kind, key):
        """Cut the ``kind`` record of ``key`` in half, as bit rot or a bad
        copy would, leaving the lines after it intact; returns its line."""
        path = tmp_path / "queue.jsonl"
        lines = path.read_text().splitlines()
        for number, line in enumerate(lines, 1):
            record = json.loads(line)
            if record["kind"] == kind and record.get("key") == key:
                lines[number - 1] = line[: len(line) // 2]
                path.write_text("\n".join(lines) + "\n")
                return number
        raise AssertionError(f"no {kind} record for {key}")

    @pytest.mark.parametrize("kind", ["cell", "done"])
    def test_garbled_midfile_line_raises(self, tmp_path, kind):
        """Regression: a corrupt line before the tail used to be skipped,
        dropping the cell (or reloading a done cell as pending) while its
        token still said done."""
        queue = make_queue(tmp_path)
        queue.claim("w1", lease_seconds=10, now=0.0)
        queue.complete("k1", metrics(), token="t1")
        queue.close()
        number = self.garble_line(tmp_path, kind, "k1")

        with pytest.raises(CorruptLogError) as raised:
            self.reload(tmp_path)
        assert raised.value.line == number
        assert f"queue.jsonl:{number}: corrupt record" in str(raised.value)

    def test_unknown_record_kind_midfile_raises(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.close()
        path = tmp_path / "queue.jsonl"
        lines = path.read_text().splitlines()
        lines.insert(1, json.dumps({"kind": "mystery", "key": "k1"}))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptLogError) as raised:
            self.reload(tmp_path)
        assert raised.value.line == 2

    def test_settle_stamps_queue_attempt_count(self, tmp_path):
        queue = make_queue(tmp_path, retry=RETRY_ONCE, cells=("k1",))
        queue.claim("w1", lease_seconds=10, now=0.0)
        queue.complete("k1", failure(attempts=1))
        queue.claim("w2", lease_seconds=10, now=1.0)
        # Worker reports its local attempt count (1); the queue knows this
        # was really attempt 2 and stamps the settled outcome accordingly.
        queue.complete("k1", failure(attempts=1))
        settled = queue.cells["k1"].outcome
        assert settled.attempts == 2
        assert settled == dataclasses.replace(failure(attempts=1), attempts=2)


class TestIdempotencyTokens:
    def test_duplicate_token_replays_decision_without_resettling(self, tmp_path):
        queue = make_queue(tmp_path, cells=("k1",))
        queue.claim("w1", lease_seconds=10, now=0.0)
        assert queue.complete("k1", metrics(cycles=7), token="t-1") == "done"
        # The duplicated delivery replays "done" — and must NOT overwrite
        # the settled outcome with its (identical or not) payload.
        assert queue.complete("k1", metrics(cycles=999), token="t-1") == "done"
        assert queue.cells["k1"].outcome.cycles == 7

    def test_duplicate_token_does_not_burn_retry_budget(self, tmp_path):
        queue = make_queue(tmp_path, retry=RETRY_ONCE, cells=("k1",))
        queue.claim("w1", lease_seconds=10, now=0.0)
        assert queue.complete("k1", failure(), token="t-1") == "retry"
        # Re-delivery of the same failed attempt: replays "retry" without
        # appending a second attempt record.
        assert queue.complete("k1", failure(), token="t-1") == "retry"
        assert queue.cells["k1"].attempts == 1
        queue.claim("w2", lease_seconds=10, now=1.0)
        assert queue.complete("k1", failure(), token="t-2") == "done"

    def test_tokenless_duplicate_still_stale(self, tmp_path):
        queue = make_queue(tmp_path, cells=("k1",))
        queue.claim("w1", lease_seconds=10, now=0.0)
        assert queue.complete("k1", metrics(), token="t-1") == "done"
        assert queue.complete("k1", metrics()) == "stale"

    def test_token_replay_survives_restart(self, tmp_path):
        queue = make_queue(tmp_path, cells=("k1",))
        queue.claim("w1", lease_seconds=10, now=0.0)
        queue.complete("k1", metrics(cycles=7), token="t-1")
        queue.close()

        reloaded = FabricQueue(tmp_path / "queue.jsonl")
        reloaded.load()
        assert reloaded.complete("k1", metrics(cycles=999), token="t-1") == "done"
        assert reloaded.cells["k1"].outcome.cycles == 7

    def test_submission_token_round_trips_restart(self, tmp_path):
        queue = FabricQueue(tmp_path / "queue.jsonl")
        queue.submit(
            "sweep-0", [("k1", request_dict())], retry=NO_RETRY, token="sub-abc"
        )
        assert queue.sweep_by_token("sub-abc").sweep_id == "sweep-0"
        assert queue.sweep_by_token("sub-zzz") is None
        queue.close()

        reloaded = FabricQueue(tmp_path / "queue.jsonl")
        reloaded.load()
        assert reloaded.sweep_by_token("sub-abc").sweep_id == "sweep-0"


class TestCompaction:
    def churn(self, queue, rounds, now=0.0):
        """Burn journal records: failed attempts fold away in a snapshot."""
        for round_number in range(rounds):
            queue.claim("w1", lease_seconds=10, now=now + round_number)
            queue.complete("k1", failure(), token=f"t-{now}-{round_number}")

    def test_journal_size_bounded_across_three_cycles(self, tmp_path):
        queue = make_queue(
            tmp_path, retry=RetryPolicy(max_retries=100, backoff_base=0.0),
            cells=("k1",),
        )
        path = tmp_path / "queue.jsonl"
        sizes = []
        for cycle in range(3):
            self.churn(queue, rounds=20, now=cycle * 100.0)
            queue.compact()
            sizes.append(path.stat().st_size)
        assert queue.compactions == 3
        # Snapshot size grows only with *state* (here: one more token per
        # churn round), never with history — 20 failed attempts fold into
        # one record, so consecutive snapshots stay within a small factor
        # while the un-compacted journal would have tripled.
        assert sizes[2] < sizes[0] * 3
        reloaded = FabricQueue(path)
        reloaded.load()
        assert reloaded.cells["k1"].attempts == 60
        assert reloaded.cells["k1"].state == CELL_PENDING

    def test_compacted_journal_reloads_identical_state(self, tmp_path):
        queue = make_queue(tmp_path, retry=RETRY_ONCE, cells=("k1", "k2"))
        queue.claim("w1", lease_seconds=10, now=0.0)
        queue.claim("w1", lease_seconds=10, now=0.0)
        queue.complete("k1", failure(), token="t-1")  # retry
        queue.complete("k2", metrics(cycles=5), token="t-2")  # done
        queue.compact()
        queue.close()

        reloaded = FabricQueue(tmp_path / "queue.jsonl")
        reloaded.load()
        assert reloaded.cells["k1"].state == CELL_PENDING
        assert reloaded.cells["k1"].attempts == 1
        assert reloaded.cells["k1"].last_failure == failure()
        assert reloaded.cells["k1"].tokens == {"t-1": "retry"}
        assert reloaded.cells["k2"].done
        assert reloaded.cells["k2"].outcome.cycles == 5
        assert reloaded.cells["k2"].tokens == {"t-2": "done"}
        assert reloaded.sweeps["sweep-0"].cells == ["k1", "k2"]

    def test_auto_compaction_triggers_and_stays_consistent(self, tmp_path):
        queue = FabricQueue(tmp_path / "queue.jsonl", compact_every=5)
        queue.submit(
            "sweep-0",
            [(f"k{i}", request_dict(name=f"wl-{i}")) for i in range(4)],
            retry=NO_RETRY,
        )
        for i in range(4):
            queue.claim("w1", lease_seconds=10, now=float(i))
            queue.complete(f"k{i}", metrics(cycles=i + 1), token=f"t-{i}")
        assert queue.compactions >= 1
        queue.close()

        reloaded = FabricQueue(tmp_path / "queue.jsonl")
        reloaded.load()
        assert all(reloaded.cells[f"k{i}"].done for i in range(4))
        assert [reloaded.cells[f"k{i}"].outcome.cycles for i in range(4)] == [1, 2, 3, 4]

    def test_torn_snapshot_tmp_discarded_on_load(self, tmp_path):
        """kill -9 mid-snapshot: the tmp file is garbage but the journal is
        still complete — load must use the journal and drop the tmp."""
        queue = make_queue(tmp_path, cells=("k1",))
        queue.claim("w1", lease_seconds=10, now=0.0)
        queue.complete("k1", metrics(cycles=9))
        queue.close()
        tmp = tmp_path / "queue.jsonl.compact"
        tmp.write_text('{"kind": "cell", "key": "k1", "requ')  # torn snapshot

        reloaded = FabricQueue(tmp_path / "queue.jsonl")
        reloaded.load()
        assert not tmp.exists()
        assert reloaded.cells["k1"].outcome.cycles == 9

    def test_crash_during_rename_recovers(self, tmp_path, monkeypatch):
        """kill -9 between snapshot fsync and rename: os.replace never ran,
        the old journal is untouched, and a restart recovers everything."""
        import repro.common.durable as durable_module

        queue = make_queue(tmp_path, cells=("k1", "k2"))
        queue.claim("w1", lease_seconds=10, now=0.0)
        queue.complete("k1", metrics(cycles=3))

        def crash(*_args):
            raise OSError("simulated kill -9 at the rename point")

        monkeypatch.setattr(durable_module.os, "replace", crash)
        with pytest.raises(OSError):
            queue.compact()
        monkeypatch.undo()

        reloaded = FabricQueue(tmp_path / "queue.jsonl")
        reloaded.load()
        assert reloaded.cells["k1"].outcome.cycles == 3
        assert reloaded.cells["k2"].state == CELL_PENDING
        assert reloaded.sweeps["sweep-0"].cells == ["k1", "k2"]

    def test_queue_usable_after_compaction(self, tmp_path):
        """Compaction closes and reopens the journal handle; appends after
        it must land in the *new* journal and survive a restart."""
        queue = make_queue(tmp_path, cells=("k1", "k2"))
        queue.claim("w1", lease_seconds=10, now=0.0)
        queue.complete("k1", metrics(cycles=1))
        queue.compact()
        queue.claim("w1", lease_seconds=10, now=1.0)
        queue.complete("k2", metrics(cycles=2))
        queue.close()

        reloaded = FabricQueue(tmp_path / "queue.jsonl")
        reloaded.load()
        assert reloaded.cells["k2"].outcome.cycles == 2

    def test_compact_every_validation(self, tmp_path):
        with pytest.raises(ValueError, match="compact_every"):
            FabricQueue(tmp_path / "q.jsonl", compact_every=0)
