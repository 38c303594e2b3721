"""Shared fixtures for sdolint tests.

``make_ctx`` builds a :class:`LintContext` from an in-memory mapping of
repo-relative paths to source text, materialized under ``tmp_path`` so
checkers that read non-Python files (the golden fixture) see a real tree.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.context import LintContext
from repro.lint.source import SourceFile

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def make_ctx(tmp_path):
    def _make(
        files: dict[str, str],
        read_scan: dict[str, str] | None = None,
        extra: dict[str, str] | None = None,
    ) -> LintContext:
        for rel, text in {**files, **(read_scan or {}), **(extra or {})}.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        sources = [SourceFile.load(tmp_path / rel, tmp_path) for rel in files]
        scans = [
            SourceFile.load(tmp_path / rel, tmp_path) for rel in (read_scan or {})
        ]
        return LintContext(tmp_path, sources, scans)

    return _make


@pytest.fixture(scope="session")
def repo_ctx():
    """The real repository, loaded once per session."""
    from repro.lint.engine import load_context

    return load_context(REPO_ROOT)
