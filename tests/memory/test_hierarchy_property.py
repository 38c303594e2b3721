"""Property tests on the hierarchy: oblivious purity, LRU reference model,
and batched warm-up (final-state install, pending sets, slice bucketing)
against per-address fills."""

import dataclasses
import gc
from collections import OrderedDict

from hypothesis import given, seed, settings, strategies as st

from repro.common.config import CacheConfig, MachineConfig, MemLevel, TlbConfig
from repro.memory.cache import CacheArray
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.interconnect import lines_by_slice, slice_fold_table, slice_of_line


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
    """Per set, its (line, dirty) items in LRU order (unallocated = empty;
    a set still pending from warm-up reads through its materialization)."""
    return [array.set_items(index) for index in range(array.num_sets)]


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


def hierarchy_arrays(hierarchy: MemoryHierarchy) -> list[CacheArray]:
    return [hierarchy.l1.array, hierarchy.l2.array] + [
        level.array for level in hierarchy.l3_slices
    ]


#: One operation on one array of a warmed hierarchy: (name, array, line,
#: flag).  The flag is ``write`` for access, ``dirty`` for fill.
array_ops = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "probe",
                "access",
                "access_nofill",
                "fill",
                "invalidate",
                "is_dirty",
                "resident_lines",
                "occupancy",
                "flush",
            ]
        ),
        st.integers(0, 9),  # array: L1, L2, then L3 slices (mod the count)
        st.one_of(st.integers(0, 127), st.integers(0, 1 << 16)),
        st.booleans(),
    ),
    max_size=80,
)


def apply_op(array: CacheArray, name: str, line: int, flag: bool):
    if name == "access":
        return array.access(line, write=flag)
    if name == "access_nofill":
        return array.access(line, write=flag, fill=False)
    if name == "fill":
        return array.fill(line, dirty=flag)
    if name in ("probe", "invalidate", "is_dirty"):
        return getattr(array, name)(line)
    return getattr(array, name)()


class TestWarmInstall:
    @seed(23)
    @settings(max_examples=120, deadline=None)
    @given(
        addrs=warm_addrs,
        write=st.booleans(),
        l3_slices=st.sampled_from([1, 2, 8]),
        ops=array_ops,
        tlb_addrs=st.lists(st.integers(0, 1 << 16), max_size=10),
    )
    def test_operations_after_warm_match_per_address_fills(
        self, addrs, write, l3_slices, ops, tlb_addrs
    ):
        """Pending sets are invisible: after ``warm``, every array operation
        (including the whole-array ones, which must count pending sets)
        returns what it returns on a hierarchy warmed address by address,
        and both end in the same state."""
        batched = MemoryHierarchy(small_machine(l3_slices))
        reference = MemoryHierarchy(small_machine(l3_slices))
        batched.warm(addrs, write=write)
        reference_warm(reference, addrs, write)
        batched_arrays = hierarchy_arrays(batched)
        reference_arrays = hierarchy_arrays(reference)
        for name, which, line, flag in ops:
            which %= len(batched_arrays)
            got = apply_op(batched_arrays[which], name, line, flag)
            assert got == apply_op(reference_arrays[which], name, line, flag), name
        for addr in tlb_addrs:
            assert batched.tlb.probe(addr) == reference.tlb.probe(addr)
            assert batched.tlb.access(addr) == reference.tlb.access(addr)
        assert hierarchy_state(batched) == hierarchy_state(reference)

    @seed(24)
    @settings(max_examples=40, deadline=None)
    @given(
        order=st.permutations(range(1024)),
        repeats=st.lists(st.integers(0, 1023), max_size=300),
        write=st.booleans(),
        l3_slices=st.sampled_from([1, 2, 8]),
    )
    def test_overflowing_warm_set_keeps_newest_lines(
        self, order, repeats, write, l3_slices
    ):
        """A fresh warm set with more distinct lines than any set (and TLB
        set) holds: every set ends full with exactly its newest lines, as
        per-address fills leave it."""
        addrs = [64 * line for line in order + repeats]
        batched = MemoryHierarchy(small_machine(l3_slices))
        reference = MemoryHierarchy(small_machine(l3_slices))
        batched.warm(addrs, write=write)
        reference_warm(reference, addrs, write)
        for array in hierarchy_arrays(batched):
            assert array.occupancy() == array.num_sets * array.assoc
        tlb = batched.tlb
        assert all(len(entries) == tlb.config.assoc for entries in tlb._sets)
        assert hierarchy_state(batched) == hierarchy_state(reference)


#: A warm stream, one line per access, in three shapes: sparse (scattered
#: over a range far wider than the array), dense (a run of consecutive
#: lines) and overfull (every line in a few sets, so those sets see more
#: than ``assoc`` distinct lines).  Each may revisit lines.
SMALL = CacheConfig("T", 16 * 4 * 64, 64, 4, 1)  # 16 sets x 4 ways
warm_streams = st.one_of(
    st.lists(st.integers(0, 1 << 40), max_size=150),
    st.builds(
        lambda start, length, repeats: list(range(start, start + length)) + repeats,
        st.integers(0, 1 << 20),
        st.integers(0, 200),
        st.lists(st.integers(0, 1 << 20), max_size=20),
    ),
    st.lists(
        st.builds(
            lambda set_index, tag: set_index + SMALL.num_sets * tag,
            st.integers(0, 2),
            st.integers(0, 12),
        ),
        max_size=150,
    ),
)


def kept_per_set(stream, num_sets: int, assoc: int) -> int:
    """How many lines an LRU array keeps of ``stream``: per set, its
    distinct lines up to ``assoc``."""
    per_set: dict[int, set[int]] = {}
    for line in stream:
        per_set.setdefault(line % num_sets, set()).add(line)
    return sum(min(assoc, len(lines)) for lines in per_set.values())


class TestWarmStreams:
    @seed(26)
    @settings(max_examples=150, deadline=None)
    @given(stream=warm_streams, dirty=st.booleans(), ops=array_ops)
    def test_install_matches_fills_on_every_stream_shape(self, stream, dirty, ops):
        """On sparse, dense and overfull streams, an empty array warmed
        from the stream's distinct lines in last-use order ends in the
        state that filling the stream line by line leaves, and answers
        every later operation the same."""
        recent = list(dict.fromkeys(reversed(stream)))
        warmed, reference, inspected = (CacheArray(SMALL) for _ in range(3))
        warmed.install_recent(recent, dirty)
        inspected.install_recent(recent, dirty)
        for line in stream:
            reference.fill(line, dirty=dirty)
        # Contents and LRU order right after the warm-up (reading a set
        # materializes it, so on a twin; ``warmed`` stays pending).
        assert array_state(inspected) == array_state(reference)
        assert warmed.occupancy() == reference.occupancy()
        assert warmed.resident_lines() == reference.resident_lines()
        for name, _, line, flag in ops:
            got = apply_op(warmed, name, line, flag)
            assert got == apply_op(reference, name, line, flag), name
        # A second warm-up replays over the sets still pending.
        warmed.fill_many(stream[::-1], dirty)
        for line in stream[::-1]:
            reference.fill(line, dirty=dirty)
        assert array_state(warmed) == array_state(reference)

    @seed(27)
    @settings(max_examples=60, deadline=None)
    @given(stream=warm_streams)
    def test_pending_storage_follows_the_lines_kept(self, stream):
        """Pending storage after a warm-up holds one entry per line kept,
        never one per way of the array: a Table I L3 slice (4,096 sets x
        8 ways) warmed with N distinct lines keeps at most N entries."""
        config = MachineConfig().l3
        array = CacheArray(config)
        recent = list(dict.fromkeys(reversed(stream)))
        array.install_recent(recent)
        kept = kept_per_set(stream, array.num_sets, array.assoc)
        assert len(array._pending_lines) == kept <= len(recent)
        assert len(array._pending_count) == array.num_sets  # one byte per set
        assert array.occupancy() == kept
        array.probe(stream[0] if stream else 0)  # one set materializes
        assert len(array._pending_lines) <= kept

    def test_pending_storage_of_a_large_warm_is_its_kept_lines(self):
        """40k consecutive lines over the eight Table I L3 slices: each
        slice keeps its ~5k lines in that many entries, not the 32,768
        ways it could hold, and releases them once every pending set has
        materialized."""
        hierarchy = MemoryHierarchy(MachineConfig())
        hierarchy.warm([64 * line for line in range(40_000)])
        slices = [level.array for level in hierarchy.l3_slices]
        assert sum(len(array._pending_lines) for array in slices) == 40_000
        for array in slices:
            assert len(array._pending_lines) < array.num_sets * array.assoc // 4
        array = slices[0]
        for line in list(array._pending_lines):
            assert array.probe(line)
        assert array._pending_lines == [] and array._pending_sets == 0
        assert len(array._pending_count) == 0


class TestWarmCollectorChurn:
    def test_large_warm_starts_no_old_generation_collection(self):
        """Warm-up allocates no container per cache set: warming 40k lines
        (spread over every set of every level, as a big table's warm set
        is) sets off no generation-1/2 collection and at most one
        generation-0 one."""
        hierarchy = MemoryHierarchy(MachineConfig())
        addrs = [64 * line for line in range(40_000)]
        started: list[int] = []

        def on_gc(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(on_gc)
        try:
            hierarchy.warm(addrs)
        finally:
            gc.callbacks.remove(on_gc)
        assert started.count(0) <= 1, started
        assert not [generation for generation in started if generation > 0], started
        assert hierarchy.l2.array.occupancy() == hierarchy.l2.array.num_sets * 8


def reference_slice_of_line(line: int, num_slices: int) -> int:
    """The slice hash by its definition: XOR the base-``num_slices``
    digits of the line (bit fields for a power of two), reduced."""
    if num_slices == 1:
        return 0
    folded = 0
    while line:
        folded ^= line % num_slices
        line //= num_slices
    return folded % num_slices


class TestSliceTable:
    @seed(25)
    @settings(max_examples=60, deadline=None)
    @given(
        num_slices=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 32, 64]),
        lines=st.lists(
            st.one_of(st.integers(0, 1 << 14), st.integers(0, 1 << 48)), max_size=200
        ),
    )
    def test_bucketing_matches_reference_hash(self, num_slices, lines):
        buckets = lines_by_slice(lines, num_slices)
        assert len(buckets) == num_slices
        for index, bucket in enumerate(buckets):
            assert bucket == [
                line for line in lines if reference_slice_of_line(line, num_slices) == index
            ]
        for line in lines:
            assert slice_of_line(line, num_slices) == reference_slice_of_line(
                line, num_slices
            )
        if num_slices > 1:
            radix, table = slice_fold_table(num_slices)
            assert slice_fold_table(num_slices) is slice_fold_table(num_slices)
            assert len(table) == radix <= 4096
            for low in range(radix):
                assert table[low] % num_slices == reference_slice_of_line(low, num_slices)
