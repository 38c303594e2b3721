"""The real repository passes its own gate.

This is the acceptance check ISSUE.md asks for: ``repro lint`` over the
live tree yields no new error-severity finding — the committed baseline
covers everything else (currently one justified advisory).
"""

from repro.lint.baseline import Baseline
from repro.lint.engine import run_lint
from repro.lint.findings import ERROR

from tests.lint.conftest import REPO_ROOT


def test_repo_has_no_gating_findings(repo_ctx):
    baseline = Baseline.load(REPO_ROOT / "sdolint-baseline.json")
    result = run_lint(repo_ctx, baseline)
    assert result.gating == [], "\n".join(f.render() for f in result.gating)


def test_oblivious_code_is_taint_free(repo_ctx):
    # Stronger than the gate: the DO paths carry zero findings, so the
    # taint lattice's clean-projection rules match the repo idioms exactly.
    result = run_lint(repo_ctx, Baseline(), select=["oblivious-timing"])
    assert result.findings == [], "\n".join(f.render() for f in result.findings)


def test_sim_core_is_determinism_clean(repo_ctx):
    result = run_lint(repo_ctx, Baseline(), select=["determinism"])
    assert result.findings == [], "\n".join(f.render() for f in result.findings)


def test_stat_keys_have_no_errors(repo_ctx):
    result = run_lint(repo_ctx, Baseline(), select=["stat-key"])
    errors = [f for f in result.findings if f.severity == ERROR]
    assert errors == [], "\n".join(f.render() for f in errors)


def test_schema_checkers_are_clean(repo_ctx):
    result = run_lint(repo_ctx, Baseline(), select=["event-schema"])
    errors = [f for f in result.findings if f.severity == ERROR]
    assert errors == [], "\n".join(f.render() for f in errors)
