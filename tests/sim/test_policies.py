"""Unit tests for the Session policy objects themselves (validation,
normalization, building) — Session-level integration lives in
``test_api.py``."""

import pytest

from repro.sim.cache import ResultCache, SweepJournal
from repro.sim.engine import RetryPolicy
from repro.sim.policies import CachePolicy, ExecutionPolicy, JournalPolicy


class TestExecutionPolicy:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.jobs == 1
        assert policy.timeout is None
        assert policy.retry_policy.max_retries == 0

    def test_int_retries_normalized_to_policy(self):
        policy = ExecutionPolicy(retries=3)
        assert isinstance(policy.retries, RetryPolicy)
        assert policy.retries.max_retries == 3

    def test_retry_policy_passes_through(self):
        retry = RetryPolicy(max_retries=2, backoff_base=0.01)
        assert ExecutionPolicy(retries=retry).retries is retry

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            ExecutionPolicy(jobs=0)

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            ExecutionPolicy(timeout=-1.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionPolicy().jobs = 4


class TestCachePolicy:
    def test_build_enabled(self, tmp_path):
        cache = CachePolicy(cache_dir=tmp_path / "c").build()
        assert isinstance(cache, ResultCache)
        assert cache.root == tmp_path / "c"

    def test_build_disabled_returns_none(self):
        assert CachePolicy(enabled=False).build() is None

    def test_path_normalized_to_str(self, tmp_path):
        assert CachePolicy(cache_dir=tmp_path).cache_dir == str(tmp_path)


class TestJournalPolicy:
    def test_build_none_without_path(self):
        assert JournalPolicy().build() is None

    def test_resume_requires_path(self):
        with pytest.raises(ValueError, match="requires a path"):
            JournalPolicy(resume=True)

    def test_build_journal(self, tmp_path):
        journal = JournalPolicy(path=tmp_path / "s.journal").build()
        assert isinstance(journal, SweepJournal)
        assert journal.path == tmp_path / "s.journal"

    def test_resume_loads_existing(self, tmp_path):
        path = tmp_path / "s.journal"
        path.write_text("")  # an empty journal is a valid journal
        journal = JournalPolicy(path=path, resume=True).build()
        assert isinstance(journal, SweepJournal)
