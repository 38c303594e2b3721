"""Property tests on the hierarchy: oblivious purity, LRU reference model,
and batched warm-up against per-address fills."""

import dataclasses
from collections import OrderedDict

from hypothesis import given, seed, settings, strategies as st

from repro.common.config import CacheConfig, MachineConfig, MemLevel, TlbConfig
from repro.memory.cache import CacheArray
from repro.memory.hierarchy import MemoryHierarchy


class ReferenceLru:
    """An obviously-correct LRU cache model to check CacheArray against."""

    def __init__(self, sets: int, assoc: int) -> None:
        self.sets = sets
        self.assoc = assoc
        self.state: dict[int, OrderedDict[int, None]] = {
            s: OrderedDict() for s in range(sets)
        }

    def access(self, line: int) -> bool:
        entries = self.state[line % self.sets]
        hit = line in entries
        if hit:
            entries.move_to_end(line)
        else:
            if len(entries) >= self.assoc:
                entries.popitem(last=False)
            entries[line] = None
        return hit

    def present(self, line: int) -> bool:
        return line in self.state[line % self.sets]


class TestCacheMatchesReference:
    @given(st.lists(st.integers(0, 63), max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_hit_miss_stream_identical(self, lines):
        cache = CacheArray(CacheConfig("T", 8 * 2 * 64, 64, 2, 1))
        reference = ReferenceLru(sets=8, assoc=2)
        for line in lines:
            hit, _ = cache.access(line)
            assert hit == reference.access(line)
        for line in range(64):
            assert cache.probe(line) == reference.present(line)


class TestObliviousPurity:
    @given(
        warm=st.lists(st.integers(0, 1 << 16), max_size=40),
        probes=st.lists(
            st.tuples(
                st.integers(0, 1 << 20),
                st.sampled_from([MemLevel.L1, MemLevel.L2, MemLevel.L3]),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_oblivious_loads_never_change_residence(self, warm, probes):
        """Any sequence of Obl-Lds leaves every line's residence level
        exactly where it was — the no-state-change half of Definition 2."""
        hierarchy = MemoryHierarchy(MachineConfig())
        hierarchy.warm(warm)
        observed = {addr: hierarchy.residence_level(addr) for addr in warm}
        now = 100
        for addr, level in probes:
            response = hierarchy.oblivious_load(addr, level, now)
            now = response.complete_at + 1
        for addr, level in observed.items():
            assert hierarchy.residence_level(addr) == level

    @given(
        warm=st.lists(st.integers(0, 1 << 16), max_size=30),
        addr=st.integers(0, 1 << 20),
        level=st.sampled_from([MemLevel.L1, MemLevel.L2, MemLevel.L3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_success_flag_is_truthful(self, warm, addr, level):
        """Definition 1: success iff the data really is at or above the
        predicted level (given a TLB hit)."""
        hierarchy = MemoryHierarchy(MachineConfig())
        hierarchy.warm(warm + [addr])  # guarantee a TLB entry for addr
        actual = hierarchy.residence_level(addr)
        response = hierarchy.oblivious_load(addr, level, 100)
        if response.tlb_hit:
            assert response.success == (actual <= level)
        else:
            assert not response.success

    @given(st.integers(0, 1 << 20))
    @settings(max_examples=30, deadline=None)
    def test_response_count_matches_prediction_depth(self, addr):
        hierarchy = MemoryHierarchy(MachineConfig())
        for level, expected in ((MemLevel.L1, 1), (MemLevel.L2, 2), (MemLevel.L3, 3)):
            response = hierarchy.oblivious_load(addr, level, 0)
            assert len(response.responses) == expected


def small_machine(l3_slices: int) -> MachineConfig:
    """Tiny caches and TLB, so a few dozen addresses already evict."""
    return dataclasses.replace(
        MachineConfig(),
        l1d=CacheConfig("L1D", 4 * 2 * 64, 64, 2, 1),
        l2=CacheConfig("L2", 8 * 2 * 64, 64, 2, 4),
        l3=CacheConfig("L3", 8 * 4 * 64, 64, 4, 10, slices=l3_slices),
        tlb=TlbConfig(entries=8, assoc=2, page_size=4096),
    )


def reference_warm(hierarchy: MemoryHierarchy, addrs, write: bool) -> None:
    """Warm-up one address at a time: fill L1, L2 and the L3 slice, then
    touch the TLB."""
    for addr in addrs:
        line = hierarchy.line_of(addr)
        hierarchy.l1.array.fill(line, dirty=write)
        hierarchy.l2.array.fill(line, dirty=False)
        hierarchy.l3_slices[hierarchy.slice_of(line)].array.fill(line, dirty=False)
        hierarchy.tlb.access(addr)
    hierarchy.tlb.hits = 0
    hierarchy.tlb.misses = 0


def array_state(array: CacheArray) -> list[list[tuple[int, bool]]]:
    """Per set, its (line, dirty) items in LRU order (unallocated = empty)."""
    return [list(s.items()) if s is not None else [] for s in array._sets]


def hierarchy_state(hierarchy: MemoryHierarchy):
    arrays = [hierarchy.l1.array, hierarchy.l2.array]
    arrays += [level.array for level in hierarchy.l3_slices]
    tlb = hierarchy.tlb
    return (
        [array_state(array) for array in arrays],
        [list(entries) for entries in tlb._sets],
        tlb.hits,
        tlb.misses,
    )


#: Addresses from a small region (so duplicates and set conflicts are
#: common) mixed with scattered ones.
warm_addrs = st.lists(
    st.one_of(st.integers(0, 4095), st.integers(0, 1 << 22)), max_size=120
)


class TestBatchedWarm:
    @seed(20)
    @settings(max_examples=120, deadline=None)
    @given(
        before=st.lists(st.tuples(st.integers(0, 1 << 16), st.booleans()), max_size=30),
        addrs=warm_addrs,
        write=st.booleans(),
        l3_slices=st.sampled_from([1, 2, 8]),
    )
    def test_matches_per_address_fills(self, before, addrs, write, l3_slices):
        """Batched ``warm`` leaves every array (contents, LRU order, dirty
        bits) and the TLB exactly as filling address by address does, also
        on a hierarchy that already holds (possibly dirty) lines."""
        batched = MemoryHierarchy(small_machine(l3_slices))
        reference = MemoryHierarchy(small_machine(l3_slices))
        for now, (addr, is_write) in enumerate(before):
            for hierarchy in (batched, reference):
                hierarchy.load(addr, 100 * now, write=is_write)
        assert hierarchy_state(batched) == hierarchy_state(reference)

        batched.warm(iter(addrs), write=write)  # a one-shot iterable suffices
        reference_warm(reference, addrs, write)
        assert hierarchy_state(batched) == hierarchy_state(reference)
