"""Smoke tests: every example script runs to completion.

Examples are documentation that executes; a broken example is a doc bug.
``reproduce_paper`` is exercised through its main() with a tiny scale via
monkeypatching (the full run is the benchmark harness's job).
"""

import runpy
import sys

import pytest


def run_example(name, monkeypatch, argv=()):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(f"examples/{name}", run_name="__main__")


def test_quickstart(monkeypatch, capsys):
    run_example("quickstart.py", monkeypatch)
    out = capsys.readouterr().out
    assert "Unsafe" in out and "Hybrid" in out
    assert "normalized" in out


def test_spectre_v1_attack(monkeypatch, capsys):
    run_example("spectre_v1_attack.py", monkeypatch)
    out = capsys.readouterr().out
    assert "LEAKED" in out  # Unsafe leaks
    assert out.count("blocked") >= 14  # 7 protected configs x 2 models


def test_custom_predictor(monkeypatch, capsys):
    run_example("custom_predictor.py", monkeypatch)
    out = capsys.readouterr().out
    assert "TwoLevel" in out
    assert "Perfect" in out


def test_memory_consistency(monkeypatch, capsys):
    run_example("memory_consistency.py", monkeypatch)
    out = capsys.readouterr().out
    assert "validations issued" in out.lower() or "validations" in out


def test_anatomy_of_overhead(monkeypatch, capsys):
    run_example("anatomy_of_overhead.py", monkeypatch)
    out = capsys.readouterr().out
    assert "MLP" in out
    assert "Pipeline diagram" in out


@pytest.mark.slow
def test_reproduce_paper_quick(monkeypatch, capsys, tmp_path):
    """The full harness at a tiny scale: exercises argument parsing, the
    sweep loop, every figure builder, and CSV output.  ``--no-cache`` makes
    it simulate every cell instead of serving a result cache left in the
    working directory by an earlier run (and keeps it from writing one)."""
    import repro.workloads as workloads_module

    full_suite = workloads_module.suite

    def tiny_suite(scale=1.0):
        return full_suite(scale=0.08)[:4]

    import examples  # noqa: F401 (path check only)

    monkeypatch.setattr("repro.workloads.suite", tiny_suite)
    monkeypatch.setattr(
        sys, "argv", ["reproduce_paper.py", "--quick", "--no-cache", "--out", str(tmp_path)]
    )
    # run_path re-imports; patch at the module the script imports from.
    import repro.workloads

    assert repro.workloads.suite is tiny_suite
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path("examples/reproduce_paper.py", run_name="__main__")
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out
    assert (tmp_path / "table3.csv").exists()
