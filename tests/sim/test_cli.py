"""Tests for the ``python -m repro`` command-line interface."""

import json
import re

import pytest

from repro.__main__ import main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "Table II" in out
    assert "mcf_like" in out


def test_run_command(capsys):
    assert main(["run", "exchange2_like", "Unsafe", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out


def test_run_sdo_prints_predictor_stats(capsys):
    assert main(["run", "deepsjeng_like", "Hybrid", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "precision" in out


def test_run_uses_cache_dir(capsys, tmp_path):
    args = ["run", "exchange2_like", "Unsafe", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert any(tmp_path.rglob("*.json")), "run should populate the cache"
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_run_with_trace_and_profile(capsys, tmp_path):
    base = tmp_path / "trace"
    assert main([
        "run", "exchange2_like", "Unsafe", "--no-cache",
        "--trace", str(base), "--trace-format", "both", "--profile",
    ]) == 0
    out = capsys.readouterr().out
    assert "stall attribution" in out
    assert "host-side profile" in out
    jsonl = tmp_path / "trace.jsonl"
    konata = tmp_path / "trace.konata"
    assert jsonl.exists() and konata.exists()
    assert konata.read_text().startswith("Kanata\t0004")
    summary = json.loads(jsonl.read_text().splitlines()[-1])
    assert summary["kind"] == "summary"


def test_traced_run_bypasses_cache(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    # Populate the cache with an uninstrumented run...
    assert main(["run", "exchange2_like", "Unsafe",
                 "--cache-dir", str(cache_dir)]) == 0
    capsys.readouterr()
    # ...then a traced run must still produce the trace (no cache hit) and
    # must not disturb the cached entry.
    entries_before = sorted(p.name for p in cache_dir.rglob("*.json"))
    trace = tmp_path / "run.trace.jsonl"
    assert main(["run", "exchange2_like", "Unsafe",
                 "--cache-dir", str(cache_dir), "--trace", str(trace)]) == 0
    assert trace.exists()
    assert sorted(p.name for p in cache_dir.rglob("*.json")) == entries_before


def test_spectre_command(capsys):
    assert main(["spectre", "--secret", "3"]) == 0
    out = capsys.readouterr().out
    assert "LEAKED" in out      # the Unsafe row
    assert "blocked" in out     # every protected row


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_unknown_workload_raises():
    with pytest.raises(KeyError):
        main(["run", "nope", "Unsafe", "--no-cache"])


def test_unknown_config_suggests_close_match():
    with pytest.raises(KeyError, match="did you mean 'Hybrid'"):
        main(["run", "exchange2_like", "hybird", "--no-cache"])


def test_sweep_command(capsys, tmp_path):
    events = tmp_path / "sweep.events.jsonl"
    out_dir = tmp_path / "csv"
    assert main([
        "sweep",
        "--workloads", "exchange2_like",
        "--configs", "STT{ld},Hybrid",
        "--models", "spectre",
        "--scale", "0.05",
        "--cache-dir", str(tmp_path / "cache"),
        "--events", str(events),
        "--out", str(out_dir),
    ]) == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out
    assert "Figure 7" in out  # Hybrid is an SDO config
    assert (out_dir / "figure6_spectre.csv").exists()
    records = [json.loads(line) for line in events.read_text().splitlines()]
    # 3 configs (Unsafe auto-inserted) x 1 workload x 1 model, 3 events each
    kinds = [r["kind"] for r in records]
    assert kinds.count("queued") == 3
    assert kinds.count("finished") == 3


def test_sweep_unknown_workload_rejected(tmp_path):
    with pytest.raises(KeyError, match="unknown workloads"):
        main([
            "sweep", "--workloads", "nope", "--scale", "0.05",
            "--cache-dir", str(tmp_path),
        ])


def test_sweep_builds_only_the_named_kernels(monkeypatch, capsys):
    """``--workloads`` builds each kernel it names once and no other, so
    asking for one kernel never draws ``mcf_like``'s table."""
    from repro.workloads import spec17

    built = []
    real_builders = spec17._builders

    def counting_builders(scale):
        def counted(name, build):
            return lambda *args, **kwargs: built.append(name) or build(*args, **kwargs)

        return {name: counted(name, build) for name, build in real_builders(scale).items()}

    monkeypatch.setattr(spec17, "_builders", counting_builders)
    assert main([
        "sweep", "--workloads", "exchange2_like", "--configs", "Unsafe",
        "--models", "spectre", "--scale", "0.05", "--no-cache", "--jobs", "1",
    ]) == 0
    assert "Figure 6" in capsys.readouterr().out
    assert built == ["exchange2_like"]
    message = f"unknown workloads: ['nope']; available: {sorted(spec17.SPEC17_NAMES)}"
    with pytest.raises(KeyError, match=re.escape(message)):
        main(["sweep", "--workloads", "exchange2_like,nope", "--scale", "0.05", "--no-cache"])
    assert built == ["exchange2_like"]


def corrupt_first_line(path):
    """A JSONL file whose first line is cut in half — corruption, since a
    complete line follows it (only the last line may be torn)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text('{"key": "a", "kind": "met\n{"key": "b"}\n')


def assert_clean_corrupt_log_error(capsys, path):
    captured = capsys.readouterr()
    assert captured.err.splitlines()[0] == (
        f"error: {path}:1: corrupt record (not a torn tail)"
    )
    assert f"move {path} aside" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_sweep_resume_from_corrupt_journal_exits_2(capsys, tmp_path):
    journal = tmp_path / "sweep.journal"
    corrupt_first_line(journal)
    assert main([
        "sweep", "--workloads", "exchange2_like", "--configs", "Hybrid",
        "--models", "spectre", "--scale", "0.05", "--no-cache",
        "--journal", str(journal), "--resume",
    ]) == 2
    assert_clean_corrupt_log_error(capsys, journal)
