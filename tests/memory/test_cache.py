"""Tests for the cache array: LRU, dirty bits, probe vs access."""

from hypothesis import given, strategies as st

from repro.common.config import CacheConfig
from repro.memory.cache import CacheArray


def small_cache(sets=4, assoc=2) -> CacheArray:
    return CacheArray(
        CacheConfig("T", size=sets * assoc * 64, line_size=64, assoc=assoc, latency=1)
    )


class TestAccess:
    def test_miss_then_hit(self):
        cache = small_cache()
        hit, _ = cache.access(0)
        assert not hit
        hit, _ = cache.access(0)
        assert hit

    def test_lru_eviction_order(self):
        cache = small_cache(sets=1, assoc=2)
        cache.access(0)
        cache.access(1)
        cache.access(0)  # 0 becomes MRU
        _, evicted = cache.access(2)  # evicts 1 (LRU)
        assert evicted is not None
        assert evicted.line == 1
        assert cache.probe(0) and cache.probe(2) and not cache.probe(1)

    def test_write_sets_dirty_and_eviction_reports_it(self):
        cache = small_cache(sets=1, assoc=1)
        cache.access(0, write=True)
        assert cache.is_dirty(0)
        _, evicted = cache.access(1)
        assert evicted.line == 0
        assert evicted.dirty

    def test_write_allocate(self):
        cache = small_cache()
        hit, _ = cache.access(5, write=True)
        assert not hit
        assert cache.probe(5)
        assert cache.is_dirty(5)

    def test_access_without_fill(self):
        cache = small_cache()
        hit, evicted = cache.access(3, fill=False)
        assert not hit and evicted is None
        assert not cache.probe(3)

    def test_sets_are_independent(self):
        cache = small_cache(sets=4, assoc=1)
        cache.access(0)
        cache.access(1)  # different set (line % sets)
        assert cache.probe(0) and cache.probe(1)


class TestProbe:
    def test_probe_does_not_fill(self):
        cache = small_cache()
        assert not cache.probe(7)
        assert not cache.probe(7)  # still absent

    def test_probe_does_not_touch_lru(self):
        """The DO lookup must not perturb replacement state — otherwise the
        Obl-Ld's address would leak through future evictions."""
        cache = small_cache(sets=1, assoc=2)
        cache.access(0)
        cache.access(1)  # LRU order: 0, 1
        assert cache.probe(0)  # must NOT promote 0
        _, evicted = cache.access(2)
        assert evicted.line == 0  # 0 still LRU despite the probe

    def test_probe_does_not_set_dirty(self):
        cache = small_cache()
        cache.access(0)
        cache.probe(0)
        assert not cache.is_dirty(0)


class TestFillInvalidate:
    def test_fill_inserts(self):
        cache = small_cache()
        assert cache.fill(9) is None
        assert cache.probe(9)

    def test_fill_preserves_existing_dirty(self):
        cache = small_cache()
        cache.access(0, write=True)
        cache.fill(0, dirty=False)
        assert cache.is_dirty(0)

    def test_invalidate(self):
        cache = small_cache()
        cache.access(0)
        assert cache.invalidate(0)
        assert not cache.probe(0)
        assert not cache.invalidate(0)

    def test_flush(self):
        cache = small_cache()
        for line in range(8):
            cache.access(line)
        cache.flush()
        assert cache.occupancy() == 0


class TestInvariants:
    @given(st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=300))
    def test_occupancy_never_exceeds_capacity(self, operations):
        cache = small_cache(sets=4, assoc=2)
        for line, write in operations:
            cache.access(line, write=write)
        assert cache.occupancy() <= 8
        for target_set in cache._sets:
            if target_set is not None:  # sets are allocated on first fill
                assert len(target_set) <= 2

    @given(st.lists(st.integers(0, 31), min_size=1, max_size=200))
    def test_most_recent_access_is_always_resident(self, lines):
        cache = small_cache(sets=4, assoc=2)
        for line in lines:
            cache.access(line)
        assert cache.probe(lines[-1])

    @given(st.lists(st.integers(0, 31), max_size=200))
    def test_probe_sequence_never_changes_state(self, lines):
        cache = small_cache()
        for line in lines[: len(lines) // 2]:
            cache.access(line)
        before = cache.resident_lines()
        for line in lines:
            cache.probe(line)
        assert cache.resident_lines() == before
